// Package cost centralizes the cycle cost model of the simulated server.
// The paper's hardware was a 300 MHz AlphaPC 21064; we express every
// primitive operation as a cycle count on that clock. The constants are
// calibrated once, against the paper's *base Scout* throughput (~800
// connections/s for small documents); every other result in
// EXPERIMENTS.md must then emerge from the mechanisms, not from
// per-experiment tuning. See DESIGN.md for the calibration policy.
package cost

import "repro/internal/sim"

// Model is the cycle cost of each primitive operation. A single Model is
// shared by every configuration; configurations differ only in whether
// accounting is enabled and how modules map to protection domains.
type Model struct {
	// Syscall is the base cost of entering the kernel (trap, dispatch,
	// ACL check) from the privileged domain.
	Syscall sim.Cycles

	// AccountingOp is the bookkeeping cost added to each kernel object
	// operation and charge when resource accounting is enabled. The paper
	// attributes the ~8% accounting overhead "mostly to keeping track of
	// ownership for memory and CPU cycles".
	AccountingOp sim.Cycles

	// CrossDomainCall is the cost of one protection-domain crossing: the
	// memory-access trap, the kernel's allowed-crossings hash lookup, the
	// switch, and the full TLB invalidation forced by the OSF1 PAL bug
	// the paper describes.
	CrossDomainCall sim.Cycles

	// TLBMissPenalty is charged the first time work runs in a domain
	// after a TLB flush (cold mappings must be reloaded). The SYN-attack
	// experiment's extra Accounting_PD slowdown comes from demux running
	// cold after every crossing.
	TLBMissPenalty sim.Cycles

	// ThreadSpawn/ThreadSwitch/ThreadExit are thread lifecycle costs.
	ThreadSpawn  sim.Cycles
	ThreadSwitch sim.Cycles
	ThreadExit   sim.Cycles

	// StackSetup is the cost of materializing a per-domain stack the
	// first time a path thread enters a domain.
	StackSetup sim.Cycles

	// SemOp and EventOp cover semaphore P/V and event arm/fire.
	SemOp   sim.Cycles
	EventOp sim.Cycles

	// IOBufAlloc/IOBufLock/IOBufMap are IOBuffer operation costs;
	// IOBufMapPerDomain is added for each domain a mapping touches.
	IOBufAlloc        sim.Cycles
	IOBufLock         sim.Cycles
	IOBufMapPerDomain sim.Cycles

	// Interrupt is the device interrupt prologue before demux starts.
	Interrupt sim.Cycles

	// DemuxPerModule is each module's demux function cost.
	DemuxPerModule sim.Cycles

	// PathFinderMatch is the cost of one pattern-based classification
	// (the PATHFINDER alternative): a handful of masked comparisons,
	// much cheaper than walking module demux functions.
	PathFinderMatch sim.Cycles

	// Protocol processing: a fixed per-packet cost for each module a
	// packet passes through, plus a per-byte cost for touching payload
	// (checksum + copy into/out of IOBuffers).
	PktPerModule sim.Cycles
	PerByte      sim.Cycles

	// HTTPParse is request parsing and response formatting; FSLookup a
	// name lookup; FSCacheHit reading a cached block; CGIDispatch
	// starting a CGI handler.
	HTTPParse   sim.Cycles
	FSLookup    sim.Cycles
	FSCacheHit  sim.Cycles
	CGIDispatch sim.Cycles

	// PathCreate/PathDestroyPerStage/PathKillPerObject drive path
	// lifecycle costs: creation walks open() down the module chain;
	// orderly destroy runs destructors per stage; kill reclaims per
	// tracked object.
	PathCreate          sim.Cycles
	PathOpenPerModule   sim.Cycles
	PathDestroyPerStage sim.Cycles
	PathKillBase        sim.Cycles
	PathKillPerObject   sim.Cycles
	PathKillPerDomain   sim.Cycles
	TCPConnSetup        sim.Cycles
	TCPConnTeardown     sim.Cycles
	TCPTimerPerConn     sim.Cycles
	SoftclockTick       sim.Cycles
	TCPMasterEvent      sim.Cycles
	QueueOp             sim.Cycles
	DiskSeek            sim.Cycles // SCSI average seek+rotational, in cycles
	DiskPerByte         sim.Cycles // SCSI transfer cost per byte
	LinuxConnCost       sim.Cycles // Apache/Linux per-connection CPU (whole request)
	LinuxPerByte        sim.Cycles // Apache/Linux per-payload-byte CPU
	LinuxKill           sim.Cycles // Table 2: kill signal until waitpid returns
	LinuxSynCost        sim.Cycles // Linux kernel cost per SYN packet
}

// Default returns the calibrated model. Calibration target: base Scout
// (no accounting, single domain) saturates near 800 connections/s on
// 1-byte documents, per Figure 8.
func Default() *Model {
	return &Model{
		Syscall:         300,
		AccountingOp:    1100,
		CrossDomainCall: 17500,
		TLBMissPenalty:  3000,

		ThreadSpawn:  10000,
		ThreadSwitch: 2000,
		ThreadExit:   2500,
		StackSetup:   2500,

		SemOp:   350,
		EventOp: 500,

		IOBufAlloc:        1500,
		IOBufLock:         400,
		IOBufMapPerDomain: 350,

		Interrupt:       4000,
		DemuxPerModule:  2600,
		PathFinderMatch: 1800,

		PktPerModule: 6000,
		PerByte:      5,

		HTTPParse:   26000,
		FSLookup:    3500,
		FSCacheHit:  2000,
		CGIDispatch: 6000,

		PathCreate:          26000,
		PathOpenPerModule:   5500,
		PathDestroyPerStage: 3500,
		PathKillBase:        12000,
		PathKillPerObject:   1000,
		PathKillPerDomain:   15000,

		TCPConnSetup:    35000,
		TCPConnTeardown: 12000,
		TCPTimerPerConn: 250,

		SoftclockTick:  900,
		TCPMasterEvent: 1500,

		QueueOp: 250,

		DiskSeek:    8 * 300_000, // 8 ms seek+rotate on the 300 MHz clock
		DiskPerByte: 30,          // ~10 MB/s sustained transfer

		LinuxConnCost: 700_000, // ~430 conn/s ceiling
		LinuxPerByte:  14,
		LinuxKill:     11_003, // Table 2 reports this directly
		LinuxSynCost:  30_000,
	}
}

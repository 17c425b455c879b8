// The adaptive detector is the data-driven successor to the fixed
// thresholds of the watchdog and session reaper: instead of asking
// "has this session crossed 2000 cycles/byte" with constants chosen
// offline, it learns what normal looks like from the live 10 ms
// metrics stream and escalates against sources that deviate from it.
// The design follows the data-driven resource-accounting line of work
// (PAPERS.md): the ledger already attributes every cycle, byte and
// kmem unit to an owner, so detection is a statistics problem over
// numbers the kernel produces anyway.

package policy

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/obs"
	"repro/internal/path"
	"repro/internal/proto/tcp"
	"repro/internal/sim"
)

// Detector defaults. All arithmetic is integer fixed-point: the
// detector sits inside the deterministic simulation and its decisions
// are part of the byte-reproducible output, so floats are banned from
// every decision.
const (
	// detectorWarmup is how long the detector observes before judging
	// anyone: the population baseline must represent legitimate traffic
	// before deviation from it means anything.
	detectorWarmup = 300 * sim.CyclesPerMillisecond
	// detectorK is the z-score multiplier: a feature is anomalous when
	// it exceeds the baseline mean by more than K standard deviations
	// (and an absolute floor, so a near-zero variance does not make
	// noise significant).
	detectorK = 4

	// fpShift is the fixed-point fraction width of the EWMA state;
	// alphaShift sets the smoothing factor alpha = 1/2^alphaShift.
	fpShift    = 8
	alphaShift = 3

	// ewmaMinObs is the minimum updates a baseline needs before it is
	// consulted: fewer and the variance estimate is garbage.
	ewmaMinObs = 8

	// Absolute deviation floors per feature (per 10 ms tick): deviations
	// smaller than these are never anomalous regardless of variance.
	arrFloor  = 4       // connection-demand arrivals
	cycFloor  = 100_000 // cycles
	kmemFloor = 2048    // bytes of kernel memory held

	// Asymmetry test: a source is asymmetric when its cumulative
	// cycles-per-byte exceeds max(DetectorAsymFloor, asymFactor x the
	// population's cycles-per-byte), or when it has burned real activity
	// with zero bytes moved (the portscan / stray-flood shape). The
	// floor matches the session reaper's static threshold; the factor
	// makes the test adapt to workloads whose normal cost per byte is
	// higher.
	DetectorAsymFloor = DefaultReaperCyclesPerByte
	asymFactor        = 4
	asymMinCycles     = 50_000 // cumulative cycles before cpb is judged
	asymMinArrivals   = 16     // zero-byte demand before it is judged

	// detectorForgiveTicks is how many consecutive clean ticks clear a
	// source's strikes (and lift its shed).
	detectorForgiveTicks = 50

	// Strike rungs of the graduated response.
	strikeDemote = 1
	strikeShed   = 2
	strikeKill   = 3
)

// DemandSource is the per-source arrival view the detector's
// rate feature reads; *tcp.Module implements it.
type DemandSource interface {
	EachSrcDemand(func(srcIP uint32, d tcp.SrcDemand))
}

// ewma is an integer fixed-point exponentially-weighted mean and
// variance. mean and vari carry fpShift fraction bits; updates and
// tests are shift-and-multiply only.
type ewma struct {
	n    uint64
	mean int64 // value << fpShift
	vari int64 // EWMA of squared deviation, << fpShift
}

func (e *ewma) update(x int64) {
	xf := x << fpShift
	if e.n == 0 {
		e.mean = xf
		e.n = 1
		return
	}
	diff := xf - e.mean
	e.mean += diff >> alphaShift
	d := diff >> fpShift
	e.vari += ((d*d)<<fpShift - e.vari) >> alphaShift
	e.n++
}

// above reports whether x sits more than max(floor, K sigma) above the
// mean. The variance comparison is squared on both sides — dev^2
// against K^2 var — so no roots and no floats.
func (e *ewma) above(x, k, floor int64) bool {
	if e.n < ewmaMinObs {
		return false
	}
	dev := x - e.mean>>fpShift
	if dev <= floor {
		return false
	}
	return dev*dev > k*k*(e.vari>>fpShift)
}

// srcState is one source address's learned profile and response state.
type srcState struct {
	ip uint32

	// Cumulative totals (monotone, fed by per-tick deltas).
	totCycles   sim.Cycles
	totBytes    uint64
	totArrivals uint64

	// Last-tick snapshots for delta computation.
	prevDemand uint64

	// Self baselines: the source measured against its own history
	// (catches a known client turning hostile).
	selfArr  ewma
	selfCyc  ewma
	selfKmem ewma

	// Response state.
	strikes int
	clean   int
	flagged bool
	killed  bool
}

// connSnap is one connection's last-tick counters, used to turn the
// cumulative ConnStats view into per-tick deltas that survive
// connection churn (a completed connection's final interval simply
// stops contributing; totals never go backwards).
type connSnap struct {
	cycles sim.Cycles
	bytes  uint64
}

// Detector is the online anomaly detector: it subscribes to the
// metrics sampler's 10 ms tick, extracts per-source features
// (connection-demand arrival rate, cycles burned, bytes served, kmem
// held) from the connection table and the demux demand ledger, keeps
// integer EWMA+variance baselines per source and for the population,
// and walks anomalous sources up the response ladder: demote their
// paths, then shed their SYNs at demux, then pathKill + penalty box.
// The kill rung additionally requires the cycles-per-byte asymmetry
// bit, which a legitimate heavy user — high cycles *and* high bytes —
// can never set: zero false kills by construction.
type Detector struct {
	*Ladder
	conns  SessionSource
	demand DemandSource
	owner  *core.Owner

	// OnOffender, when non-nil, receives sources the kill rung boxes
	// directly because they own no live paths (pure demand floods).
	// Path-owning offenders reach the penalty box through pathKill's
	// existing reapKilled -> tcp.Module.OnOffender chain instead.
	OnOffender func(srcIP uint32)

	srcs  map[uint32]*srcState
	order []uint32 // first-seen source order: deterministic iteration

	snaps map[module.PathRef]connSnap

	// Population baselines over active (non-striked) sources, plus the
	// population's cumulative cycles/bytes for the adaptive asymmetry
	// threshold.
	popArr    ewma
	popCyc    ewma
	popKmem   ewma
	popCycles sim.Cycles
	popBytes  uint64

	shed map[uint32]bool

	warmUntil sim.Cycles
	started   bool

	// Escalations counts every rung taken (the scenario harness's
	// adaptive detection signal); Flagged counts sources that entered
	// the ladder; Sheds and Boxed count those rungs specifically.
	Escalations uint64
	Flagged     uint64
	Sheds       uint64
	Boxed       uint64

	log []byte
}

// EnableDetector arms the detector: it registers a dedicated ledger
// owner (scan cost is a visible row, like the watchdog's), subscribes
// to the sampler's tick, and returns the detector for wiring
// (tcp.Module.ShedSrc wants SourceShed; OnOffender wants the penalty
// box). The sampler must be the kernel's metrics instance — escort
// installs a sink-less obs.NewSampler when no metrics export is
// configured, so arming the detector never changes sampling behavior.
func EnableDetector(k *kernel.Kernel, mgr *path.Manager, conns SessionSource,
	demand DemandSource, m *obs.Metrics) *Detector {
	d := &Detector{
		Ladder: NewLadder(k, mgr),
		conns:  conns,
		demand: demand,
		srcs:   make(map[uint32]*srcState),
		snaps:  make(map[module.PathRef]connSnap),
		shed:   make(map[uint32]bool),
		log:    []byte("at_cycles,action,src,arrivals,cycles,bytes,kmem,strikes\n"),
	}
	d.owner = k.NewOwner("Policy Detector", core.DomainOwner)
	if m != nil {
		m.Subscribe(d.tick)
	}
	return d
}

// SourceShed is the per-source shed predicate for tcp.Module.ShedSrc:
// true while the source sits on the shed rung or above.
func (d *Detector) SourceShed(srcIP uint32) bool {
	return d.shed[srcIP]
}

// DecisionLog returns the CSV decision log: one row per response
// action, the byte-determinism witness for the detector's decisions.
func (d *Detector) DecisionLog() []byte { return d.log }

// src returns (creating if needed) the state for one source address,
// preserving first-seen order.
func (d *Detector) src(ip uint32) *srcState {
	s, ok := d.srcs[ip]
	if !ok {
		s = &srcState{ip: ip}
		d.srcs[ip] = s
		d.order = append(d.order, ip)
	}
	return s
}

// feature vector for one source, one tick.
type tickFeatures struct {
	arrivals int64
	cycles   int64
	bytes    int64
	kmem     int64
	paths    []*path.Path
}

// tick is the per-sample hook: extract features, update baselines,
// judge, respond. It runs at a scheduler-loop boundary (the sampler's
// contract), where pathKill and priority changes are safe; its scan
// cost is charged to the detector's own owner via Burn, which advances
// the virtual clock so the Table 1 invariant is untouched.
func (d *Detector) tick(s obs.Sample) {
	now := s.At
	if !d.started {
		d.started = true
		d.warmUntil = now + detectorWarmup
	}

	feats := d.collect()

	// Baseline updates: every active source feeds its own profile;
	// sources not currently on the ladder also feed the population.
	model := d.k.Model()
	cost := model.EventOp
	for _, ip := range d.order {
		st := d.srcs[ip]
		f, ok := feats[ip]
		if !ok {
			continue
		}
		cost += model.AccountingOp
		if f.arrivals > 0 {
			st.selfArr.update(f.arrivals)
		}
		if f.cycles > 0 {
			st.selfCyc.update(f.cycles)
		}
		if f.kmem > 0 {
			st.selfKmem.update(f.kmem)
		}
		if st.strikes == 0 {
			if f.arrivals > 0 {
				d.popArr.update(f.arrivals)
			}
			if f.cycles > 0 {
				d.popCyc.update(f.cycles)
			}
			if f.kmem > 0 {
				d.popKmem.update(f.kmem)
			}
			d.popCycles += sim.Cycles(f.cycles)
			d.popBytes += uint64(f.bytes)
		}
	}
	d.k.Burn(d.owner, cost)

	if now < d.warmUntil {
		return
	}

	for _, ip := range d.order {
		st := d.srcs[ip]
		f := feats[ip]
		d.judge(now, st, f)
	}
}

// collect builds this tick's per-source feature vectors from the
// demand ledger (arrival deltas) and the connection table (per-conn
// cycle/byte deltas against last tick's snapshot, kmem levels, live
// paths). The snapshot map is rebuilt each tick so dead connections
// cannot pin entries.
func (d *Detector) collect() map[uint32]tickFeatures {
	feats := make(map[uint32]tickFeatures)
	if d.demand != nil {
		d.demand.EachSrcDemand(func(ip uint32, dem tcp.SrcDemand) {
			st := d.src(ip)
			total := dem.Syns + dem.Strays
			delta := total - st.prevDemand
			st.prevDemand = total
			st.totArrivals += delta
			f := feats[ip]
			f.arrivals += int64(delta)
			feats[ip] = f
		})
	}
	next := make(map[module.PathRef]connSnap, len(d.snaps))
	if d.conns != nil {
		d.conns.EachConn(func(cs tcp.ConnStats) {
			if !cs.Path.Alive() {
				return
			}
			owner := cs.Path.PathOwner()
			if owner == nil {
				return
			}
			st := d.src(cs.RemoteIP)
			cyc := owner.Counters.Cycles
			bytes := cs.BytesIn + cs.BytesOut
			prev := d.snaps[cs.Path]
			dc := cyc - prev.cycles
			if dc < 0 {
				dc = 0
			}
			db := bytes - prev.bytes
			next[cs.Path] = connSnap{cycles: cyc, bytes: bytes}
			st.totCycles += dc
			st.totBytes += db
			f := feats[cs.RemoteIP]
			f.cycles += int64(dc)
			f.bytes += int64(db)
			f.kmem += int64(owner.Counters.Kmem)
			if p, ok := cs.Path.(*path.Path); ok {
				f.paths = append(f.paths, p)
			}
			feats[cs.RemoteIP] = f
		})
	}
	d.snaps = next
	return feats
}

// asymmetric reports the cycles-per-byte asymmetry bit for a source:
// real activity with zero bytes, or a cumulative cost per byte beyond
// the adaptive threshold. This is the signal a legitimate heavy user
// cannot produce — their bytes grow with their cycles.
func (d *Detector) asymmetric(st *srcState) bool {
	if st.totBytes == 0 {
		return st.totCycles >= asymMinCycles || st.totArrivals >= asymMinArrivals
	}
	if st.totCycles < asymMinCycles {
		return false
	}
	thresh := sim.Cycles(DetectorAsymFloor)
	if d.popBytes > 0 {
		if pop := asymFactor * d.popCycles / sim.Cycles(d.popBytes); pop > thresh {
			thresh = pop
		}
	}
	return st.totCycles > thresh*sim.Cycles(st.totBytes)
}

// judge scores one source against the baselines and advances or decays
// its position on the response ladder.
func (d *Detector) judge(now sim.Cycles, st *srcState, f tickFeatures) {
	const k = detectorK
	zArr := f.arrivals > 0 &&
		(d.popArr.above(f.arrivals, k, arrFloor) || st.selfArr.above(f.arrivals, k, arrFloor))
	zCyc := f.cycles > 0 &&
		(d.popCyc.above(f.cycles, k, cycFloor) || st.selfCyc.above(f.cycles, k, cycFloor))
	zKmem := f.kmem > 0 &&
		(d.popKmem.above(f.kmem, k, kmemFloor) || st.selfKmem.above(f.kmem, k, kmemFloor))
	asym := d.asymmetric(st)

	// Anomalous: a z-deviation on any feature, or sustained asymmetry
	// alone (the slowloris shape: quiet, not loud). Sources with no
	// activity at all this tick are never anomalous.
	active := f.arrivals > 0 || f.cycles > 0 || f.kmem > 0
	anomalous := active && (zArr || zCyc || zKmem || asym)

	if !anomalous {
		if st.strikes > 0 {
			st.clean++
			if st.clean >= detectorForgiveTicks {
				st.strikes = 0
				st.clean = 0
				st.killed = false
				if d.shed[st.ip] {
					delete(d.shed, st.ip)
				}
				d.logRow(now, "forgive", st, f)
			}
		}
		return
	}
	st.clean = 0
	if st.strikes < strikeKill {
		st.strikes++
	}
	if !st.flagged {
		st.flagged = true
		d.Flagged++
	}

	switch {
	case st.strikes == strikeDemote:
		d.Escalations++
		for _, p := range f.paths {
			d.Demote(p, "detectorDemote")
		}
		d.logRow(now, "demote", st, f)
	case st.strikes == strikeShed:
		d.Escalations++
		d.shed[st.ip] = true
		d.Sheds++
		if tr := d.k.Tracer(); tr != nil {
			tr.Policy("detectorShed", "", lib.FormatIPv4(st.ip), now)
		}
		d.logRow(now, "shed", st, f)
	case st.strikes >= strikeKill && asym && !st.killed:
		// The kill rung is gated on the asymmetry bit: z-deviation alone
		// (a legitimately busy client) never kills.
		d.Escalations++
		st.killed = true
		if len(f.paths) > 0 {
			for _, p := range f.paths {
				d.Kill(p, "detectorKill")
			}
			d.logRow(now, "kill", st, f)
		} else if d.OnOffender != nil {
			// Pure demand flood: nothing to kill, box the source directly.
			d.OnOffender(st.ip)
			d.Boxed++
			d.logRow(now, "box", st, f)
		}
	}
}

// logRow appends one decision to the CSV log.
func (d *Detector) logRow(now sim.Cycles, action string, st *srcState, f tickFeatures) {
	b := d.log
	b = strconv.AppendUint(b, uint64(now), 10)
	b = append(b, ',')
	b = append(b, action...)
	b = append(b, ',')
	b = append(b, lib.FormatIPv4(st.ip)...)
	b = append(b, ',')
	b = strconv.AppendInt(b, f.arrivals, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, f.cycles, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, f.bytes, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, f.kmem, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(st.strikes), 10)
	b = append(b, '\n')
	d.log = b
}

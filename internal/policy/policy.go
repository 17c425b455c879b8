// Package policy implements the representative security policies of
// §4.4 on top of Escort's mechanisms. The paper's position is that the
// mechanisms (accounting, paths, protection domains, filters) are the
// contribution and policies are pluggable; the three here are the ones
// the evaluation measures:
//
//   - SYN defense: trusted and untrusted subnets get separate passive
//     paths; each passive path tracks how many of its active paths are
//     still in SYN_RECVD and drops excess SYNs during demultiplexing.
//   - CGI containment: a thread exceeding its owner's CPU budget (2 ms
//     without yielding) triggers pathKill, reclaiming every resource the
//     path owns in every protection domain. Every policy's demotions and
//     kills go through one response Ladder.
//   - QoS reservation: paths accepted by a reserved listener get a
//     proportional-share allocation large enough to sustain their rate.
package policy

import (
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/obs"
	"repro/internal/path"
	"repro/internal/proto/tcp"
	"repro/internal/sim"
)

// DefaultCGILimit is the paper's detection threshold: 2 ms of CPU
// without a yield.
const DefaultCGILimit = 2 * sim.CyclesPerMillisecond

// Containment wires runaway detection and protection faults to the
// kill rung of the response Ladder. Kills counts containment events
// (including non-path owners, which are destroyed outright) and
// ReclaimedCycles totals the pathKill cost.
type Containment struct {
	*Ladder

	// LastKillCycles is the most recent pathKill's reclamation cost
	// (the Table 2 measurement).
	LastKillCycles sim.Cycles
}

// EnableContainment installs the runaway and protection-fault handlers.
func EnableContainment(k *kernel.Kernel, mgr *path.Manager) *Containment {
	c := &Containment{Ladder: NewLadder(k, mgr)}
	contain := func(t *kernel.Thread) {
		owner := t.Owner()
		if p := mgr.PathByOwner(owner); p != nil {
			c.LastKillCycles = c.Kill(p, "containKill")
			return
		}
		k.DestroyOwner(owner, true)
		c.Kills++
	}
	k.OnRunaway = contain
	k.OnProtFault = contain
	return c
}

// PassiveAttrs builds the attribute set for one passive SYN path.
func PassiveAttrs(port int, trustClass string, match func(uint32) bool, synCap int, activeStart string, extra lib.Attrs) lib.Attrs {
	return lib.Attrs{
		lib.AttrPassive:     true,
		lib.AttrLocalPort:   port,
		lib.AttrTrustClass:  trustClass,
		tcp.AttrTrustMatch:  match,
		tcp.AttrSynCap:      synCap,
		tcp.AttrActiveStart: activeStart,
		tcp.AttrActiveExtra: extra,
	}
}

// ReserveShare gives a path's owner a proportional-share allocation.
// With stride scheduling the guarantee is a CPU *ratio*; tickets are
// sized so the reserved owner dominates best-effort owners (which get
// the default 10 tickets each). A reservation also extends the owner's
// runtime quantum: a guaranteed stream legitimately computes longer
// bursts than the best-effort 2 ms budget (in the worst-case
// protection-domain configuration a 10 KB write crosses dozens of
// domain boundaries in one slice).
func ReserveShare(p module.PathRef, tickets uint64) {
	kernel.OwnerShare(p.PathOwner()).Tickets = tickets
	o := p.PathOwner()
	if min := 10 * sim.CyclesPerMillisecond; o.Limits.MaxRunCycles > 0 && o.Limits.MaxRunCycles < min {
		o.Limits.MaxRunCycles = min
	}
}

// QoSOnAccept returns an OnAccept hook reserving tickets for every
// connection a listener accepts.
func QoSOnAccept(tickets uint64) func(module.PathRef) {
	return func(p module.PathRef) {
		ReserveShare(p, tickets)
	}
}

// DemotePriority gives an owner a low priority (the paper's remark:
// previously offending clients can be demultiplexed to a passive path
// "with a very small resource allocation").
func DemotePriority(p module.PathRef) {
	sh := kernel.OwnerShare(p.PathOwner())
	sh.Tickets = 1
	sh.Priority = 0
}

// PenaltyBox implements the remark of §4.4.4: "clients that have
// previously violated some resource bound — e.g. the CGI attackers in
// our example — can be identified and their future connection request
// packets demultiplexed to a different distinct passive path with a
// very small resource allocation." It records offender source
// addresses (fed by the TCP module's abnormal-death notification) and
// serves as the match predicate of the penalty passive path. An
// address stays boxed for the rest of the run.
type PenaltyBox struct {
	strikes map[uint32]uint
	eng     interface{ Now() sim.Cycles }

	// Recorded counts offender registrations (including repeats).
	Recorded uint64

	// Tracer, when non-nil, receives a penaltyRecord policy event per
	// registration.
	Tracer *obs.Tracer
}

// NewPenaltyBox returns an empty penalty box on the given clock.
func NewPenaltyBox(eng interface{ Now() sim.Cycles }) *PenaltyBox {
	return &PenaltyBox{strikes: make(map[uint32]uint), eng: eng}
}

// Record registers an offender, adding a strike if it is already known.
func (pb *PenaltyBox) Record(srcIP uint32) {
	pb.Recorded++
	pb.strikes[srcIP]++
	if tr := pb.Tracer; tr != nil {
		tr.Policy("penaltyRecord", "PenaltyBox", lib.FormatIPv4(srcIP), pb.eng.Now())
	}
}

// IsOffender reports whether the address is boxed.
func (pb *PenaltyBox) IsOffender(srcIP uint32) bool { return pb.strikes[srcIP] > 0 }

// Strikes returns the number of times the address was recorded.
func (pb *PenaltyBox) Strikes(srcIP uint32) uint { return pb.strikes[srcIP] }

// Count returns the number of boxed addresses.
func (pb *PenaltyBox) Count() int { return len(pb.strikes) }

package path

import (
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/sim"
)

// maxDemuxSteps bounds the module chain a single demux may walk.
const maxDemuxSteps = 32

// Demux identifies the path an incoming message belongs to (§2.2): the
// kernel invokes the demux operation of a sequence of modules starting
// at entry; each module either forwards to an adjacent module, rejects,
// or returns the unique path. Demux runs at interrupt time; its cost
// (per consulted module, plus a TLB reload for each module domain that
// is cold — the effect behind Figure 9's larger Accounting_PD slowdown)
// is charged to the identified path, or to the entry module's domain
// when the message is rejected.
func (mgr *Manager) Demux(entry string, m *msg.Msg) (*Path, module.Verdict) {
	tr := mgr.tracer
	if tr == nil {
		return mgr.demux(entry, m)
	}
	began := mgr.k.Engine().Now()
	p, v := mgr.demux(entry, m)
	now := mgr.k.Engine().Now()
	if p != nil {
		tr.Demux(entry, "found", p.name, began, now)
	} else {
		tr.Demux(entry, "reject", v.Reason, began, now)
	}
	return p, v
}

func (mgr *Manager) demux(entry string, m *msg.Msg) (*Path, module.Verdict) {
	k := mgr.k
	model := k.Model()

	// The device interrupt prologue is part of the per-datagram cost and
	// is charged with the demux time to the identified path (or to the
	// entry module's domain on reject).
	cycles := model.Interrupt + k.AccountingTax()
	cur := entry
	for step := 0; step < maxDemuxSteps; step++ {
		node, ok := mgr.graph.Node(cur)
		if !ok {
			panic("path: demux at unknown module " + cur)
		}
		cycles += model.DemuxPerModule
		if k.TLB().Touch(node.Domain().ID()) {
			cycles += model.TLBMissPenalty
		}
		v := node.Mod().Demux(m)
		switch v.Kind {
		case module.VerdictContinue:
			if !node.ConnectedTo(v.Next) {
				k.Burn(&node.Domain().Owner, cycles)
				mgr.DemuxRejects++
				//escort:coldpath miswired graph: a module named a successor it has no edge to
				return nil, module.Reject("demux: no edge " + cur + "->" + v.Next)
			}
			cur = v.Next
		case module.VerdictReject:
			k.Burn(&node.Domain().Owner, cycles)
			mgr.DemuxRejects++
			return nil, v
		case module.VerdictFound:
			p := v.Path.(*Path)
			k.Burn(&p.Owner, cycles)
			return p, v
		}
	}
	entryNode := mgr.graph.MustNode(entry)
	k.Burn(&entryNode.Domain().Owner, cycles)
	mgr.DemuxRejects++
	return nil, module.Reject("demux: step limit exceeded")
}

// FrameClassifier is a pattern-based demultiplexer (PATHFINDER-style,
// the paper's reference [2]) consulted before the module demux chain:
// a hit identifies the path from declared patterns alone, with no
// module code running at interrupt time.
type FrameClassifier interface {
	ClassifyTarget(frame []byte) (target any, ok bool)
}

// SetClassifier installs a pattern-based fast path for DeliverInbound.
func (mgr *Manager) SetClassifier(c FrameClassifier) { mgr.classifier = c }

// DeliverInbound demuxes an inbound message and, when a path is found,
// enqueues it there. It reports whether the message reached a path (the
// message is freed otherwise). This is the driver interrupt handler's
// upper half. With a classifier installed, pattern hits bypass the
// module chain; misses fall back to it (so policies that manifest as
// pattern removal — a listener over its SYN budget — are still
// enforced by the module demux path).
func (mgr *Manager) DeliverInbound(entry string, m *msg.Msg) bool {
	if mgr.classifier != nil {
		if target, ok := mgr.classifier.ClassifyTarget(m.Bytes()); ok {
			if p, isPath := target.(*Path); isPath && p.alive {
				k := mgr.k
				model := k.Model()
				tr := mgr.tracer
				var began sim.Cycles
				if tr != nil {
					began = k.Engine().Now()
				}
				k.Burn(&p.Owner, model.Interrupt+model.PathFinderMatch+k.AccountingTax())
				if tr != nil {
					tr.Demux(entry, "pattern", p.name, began, k.Engine().Now())
				}
				mgr.PatternHits++
				return p.EnqueueIn(m) == nil
			}
		}
		mgr.PatternMisses++
	}
	p, _ := mgr.Demux(entry, m)
	if p == nil {
		m.Free()
		return false
	}
	return p.EnqueueIn(m) == nil
}

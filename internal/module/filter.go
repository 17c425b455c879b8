package module

import (
	"errors"

	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/msg"
)

// ErrFiltered is returned by a filter stage when a message violates the
// filter's restricted interface; the path executor drops the message.
var ErrFiltered = errors.New("module: message rejected by filter")

// Predicate decides whether a message may pass a filter in the given
// direction.
type Predicate func(dir Direction, m *msg.Msg) bool

// Filter is the fourth of Escort's policy-enforcement levels (§2.5): a
// module interposed on a graph edge whose purpose is to enforce policy
// rather than provide functionality. Syntactically it is an ordinary
// module, and, keeping no per-path state, it is its own stage: it
// forwards messages that satisfy the predicate and drops the rest —
// e.g. narrowing a TCP/IP edge from "receive packets" to "receive
// packets to port 80". The same vanilla neighbor modules work with or
// without the filter.
type Filter struct {
	reason    string // demux reject reason, naming the filter's node
	next      string // next module during path creation (toward the device)
	demuxNext string // next module during demux (toward the application)
	pred      Predicate
	demuxPred Predicate // demux-time predicate (raw frame view)

	// Dropped counts messages the filter rejected.
	Dropped uint64
}

// NewFilter returns a filter module admitting only messages satisfying
// pred. Path creation continues at next; demultiplexing — which travels
// the opposite direction — continues at demuxNext.
func NewFilter(next, demuxNext string, pred Predicate) *Filter {
	return &Filter{next: next, demuxNext: demuxNext, pred: pred}
}

// WithDemuxPredicate sets a distinct predicate for demultiplexing time,
// where the message is still a raw frame (headers unstripped). Without
// one, the deliver predicate applies at demux too.
func (f *Filter) WithDemuxPredicate(pred Predicate) *Filter {
	f.demuxPred = pred
	return f
}

// Init implements Module.
func (f *Filter) Init(ic *InitCtx) error {
	f.reason = "filtered: " + ic.Node.Name()
	return nil
}

// CreateStage implements Module: every path shares the filter as its
// stage.
func (f *Filter) CreateStage(pb PathBuilder, attrs lib.Attrs) (Stage, string, error) {
	return f, f.next, nil
}

// Demux implements Module: the filter applies its predicate during
// demultiplexing too, so rejected traffic dies as early as possible.
func (f *Filter) Demux(m *msg.Msg) Verdict {
	pred := f.demuxPred
	if pred == nil {
		pred = f.pred
	}
	if !pred(Up, m) {
		f.Dropped++
		return Reject(f.reason)
	}
	return Continue(f.demuxNext)
}

// Deliver implements Stage.
func (f *Filter) Deliver(ctx *kernel.Ctx, dir Direction, m *msg.Msg) (bool, error) {
	ctx.Use(ctx.Kernel().Model().QueueOp)
	if !f.pred(dir, m) {
		f.Dropped++
		return false, ErrFiltered
	}
	return true, nil
}

// Destroy implements Stage.
func (f *Filter) Destroy(*kernel.Ctx) {}

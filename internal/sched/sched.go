// Package sched implements Escort's pluggable thread schedulers. The
// paper: "The thread scheduler is configured during configuration time.
// Escort currently supports a priority-based scheduler, a proportional
// share scheduler, and an EDF scheduler." The proportional-share
// scheduler (stride scheduling) is the one the QoS experiments (Figures
// 10 and 11) rely on to keep the 1 MBps stream within 1% of target.
//
// Scheduling parameters live in the owner (the third part of the Owner
// structure, Figure 4) as a Share; each thread carries its own queue
// State pointing at its owner's Share, so all threads of an owner draw
// on the owner's allocation while remaining independently queueable.
package sched

import (
	"repro/internal/sim"
)

// Entity is what schedulers order — in practice a kernel thread.
type Entity interface {
	SchedState() *State
}

// Share is the per-owner scheduling allocation: the third part of the
// Owner structure. The zero value is a best-effort share.
type Share struct {
	// Priority orders the priority scheduler; higher runs first.
	Priority int
	// Tickets is the proportional-share weight. Zero is treated as one.
	Tickets uint64
	// Deadline is the EDF absolute deadline in cycles.
	Deadline sim.Cycles
	// Period advances Deadline after each dispatch under EDF.
	Period sim.Cycles

	pass uint64 // stride virtual time, accumulated across the owner
}

// State is a schedulable entity's queue bookkeeping, bound to its
// owner's Share.
type State struct {
	share   *Share
	inQueue bool
}

// MakeState returns a State drawing on share, for embedding by value
// (a kernel thread holds its State inline).
func MakeState(share *Share) State {
	if share == nil {
		share = &Share{}
	}
	return State{share: share}
}

// NewState returns a State drawing on share.
func NewState(share *Share) *State {
	st := MakeState(share)
	return &st
}

// Scheduler is the kernel's dispatch interface. Entities appear at most
// once in the queue: Enqueue of a queued entity is a no-op.
type Scheduler interface {
	// Enqueue makes the entity runnable.
	Enqueue(Entity)
	// Dequeue removes and returns the next entity to run, or nil.
	Dequeue() Entity
	// Remove deletes a (possibly queued) entity, e.g. when it is killed.
	Remove(Entity)
	// Charged informs the scheduler the entity consumed CPU, so
	// proportional-share bookkeeping can advance.
	Charged(Entity, sim.Cycles)
}

// stride1 is the stride-scheduling constant: stride = stride1 / tickets.
const stride1 = 1 << 20

// Stride is a proportional-share scheduler (Waldspurger's stride
// scheduling). Unlike the classic formulation, pass advances in
// proportion to the cycles actually consumed, so variable-length
// non-preemptive quanta still converge to exact proportional shares.
type Stride struct {
	queue      []Entity
	globalPass uint64
}

// NewStride returns a proportional-share scheduler.
func NewStride() *Stride { return &Stride{} }

// Enqueue implements Scheduler. A newly runnable owner share starts at
// the global pass so it cannot claim credit for time spent blocked.
func (s *Stride) Enqueue(e Entity) {
	st := e.SchedState()
	if st.inQueue {
		return
	}
	if st.share.pass < s.globalPass {
		st.share.pass = s.globalPass
	}
	st.inQueue = true
	s.queue = append(s.queue, e)
}

// Dequeue implements Scheduler: minimum pass wins.
func (s *Stride) Dequeue() Entity {
	if len(s.queue) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(s.queue); i++ {
		if s.queue[i].SchedState().share.pass < s.queue[best].SchedState().share.pass {
			best = i
		}
	}
	e := s.queue[best]
	s.queue = append(s.queue[:best], s.queue[best+1:]...)
	st := e.SchedState()
	st.inQueue = false
	if st.share.pass > s.globalPass {
		s.globalPass = st.share.pass
	}
	return e
}

// Remove implements Scheduler.
func (s *Stride) Remove(e Entity) {
	st := e.SchedState()
	if !st.inQueue {
		return
	}
	for i, q := range s.queue {
		if q == e {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	st.inQueue = false
}

// Charged implements Scheduler: pass advances by used/tickets (scaled).
func (s *Stride) Charged(e Entity, used sim.Cycles) {
	sh := e.SchedState().share
	tickets := sh.Tickets
	if tickets == 0 {
		tickets = 1
	}
	sh.pass += uint64(used) * stride1 / tickets / 1024
}

// NumPriorities is the number of priority levels in the priority
// scheduler. Priorities are clamped into [0, NumPriorities).
const NumPriorities = 8

// Priority is a fixed-priority scheduler with FIFO order per level.
type Priority struct {
	levels [NumPriorities][]Entity
}

// NewPriority returns a priority scheduler.
func NewPriority() *Priority { return &Priority{} }

func clampPrio(v int) int {
	if v < 0 {
		return 0
	}
	if v >= NumPriorities {
		return NumPriorities - 1
	}
	return v
}

// Enqueue implements Scheduler.
func (p *Priority) Enqueue(e Entity) {
	st := e.SchedState()
	if st.inQueue {
		return
	}
	st.inQueue = true
	l := clampPrio(st.share.Priority)
	p.levels[l] = append(p.levels[l], e)
}

// Dequeue implements Scheduler: highest priority level first.
func (p *Priority) Dequeue() Entity {
	for l := NumPriorities - 1; l >= 0; l-- {
		if len(p.levels[l]) > 0 {
			e := p.levels[l][0]
			p.levels[l] = p.levels[l][1:]
			e.SchedState().inQueue = false
			return e
		}
	}
	return nil
}

// Remove implements Scheduler.
func (p *Priority) Remove(e Entity) {
	st := e.SchedState()
	if !st.inQueue {
		return
	}
	l := clampPrio(st.share.Priority)
	for i, q := range p.levels[l] {
		if q == e {
			p.levels[l] = append(p.levels[l][:i], p.levels[l][i+1:]...)
			break
		}
	}
	st.inQueue = false
}

// Charged implements Scheduler (no-op for fixed priorities).
func (p *Priority) Charged(Entity, sim.Cycles) {}

// EDF is an earliest-deadline-first scheduler. Entities without a
// deadline (zero) sort last, behaving as background work.
type EDF struct {
	queue []Entity
}

// NewEDF returns an EDF scheduler.
func NewEDF() *EDF { return &EDF{} }

// Enqueue implements Scheduler.
func (e *EDF) Enqueue(en Entity) {
	st := en.SchedState()
	if st.inQueue {
		return
	}
	st.inQueue = true
	e.queue = append(e.queue, en)
}

func edfKey(en Entity) sim.Cycles {
	d := en.SchedState().share.Deadline
	if d == 0 {
		return ^sim.Cycles(0)
	}
	return d
}

// Dequeue implements Scheduler: earliest deadline wins; a dispatched
// periodic entity has its deadline advanced by its period.
func (e *EDF) Dequeue() Entity {
	if len(e.queue) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(e.queue); i++ {
		if edfKey(e.queue[i]) < edfKey(e.queue[best]) {
			best = i
		}
	}
	en := e.queue[best]
	e.queue = append(e.queue[:best], e.queue[best+1:]...)
	st := en.SchedState()
	st.inQueue = false
	if st.share.Period > 0 && st.share.Deadline > 0 {
		st.share.Deadline += st.share.Period
	}
	return en
}

// Remove implements Scheduler.
func (e *EDF) Remove(en Entity) {
	st := en.SchedState()
	if !st.inQueue {
		return
	}
	for i, q := range e.queue {
		if q == en {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			break
		}
	}
	st.inQueue = false
}

// Charged implements Scheduler (no-op; deadlines advance on dispatch).
func (e *EDF) Charged(Entity, sim.Cycles) {}

// New returns a scheduler by configuration name: "priority",
// "proportional-share" (or "stride"), or "edf".
func New(name string) Scheduler {
	switch name {
	case "priority":
		return NewPriority()
	case "proportional-share", "stride":
		return NewStride()
	case "edf":
		return NewEDF()
	default:
		panic("sched: unknown scheduler " + name)
	}
}

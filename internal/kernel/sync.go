package kernel

import (
	"errors"

	"repro/internal/core"
	"repro/internal/lib"
	"repro/internal/sim"
)

// Kernel memory footprints of the synchronization objects.
const (
	semKmem   = 128
	eventKmem = 96
)

// ErrDestroyed is returned to waiters unblocked by semaphore destruction.
var ErrDestroyed = errors.New("kernel: object destroyed")

// Semaphore is an Escort semaphore (§3.2): owned by a path or protection
// domain; threads blocked on it need not belong to the owner; destroying
// it unblocks every thread that does not belong to the owner (the
// owner's threads are being destroyed anyway). Blocked threads wait in
// FIFO order on a list linked through the threads themselves, so
// blocking and waking never allocate.
type Semaphore struct {
	k          *Kernel
	owner      *core.Owner
	count      int
	head, tail *Thread // waiters, oldest first, linked by Thread.semNext
	node       lib.Node
	destroyed  bool
}

// NewSemaphore creates a semaphore charged to owner.
//
//escort:coldpath constructor: creation is charged (ChargeSemaphore + kmem), not packet path
func (k *Kernel) NewSemaphore(owner *core.Owner, initial int) *Semaphore {
	s := &Semaphore{k: k, owner: owner, count: initial}
	s.node.Value = s
	owner.ChargeSemaphore()
	owner.ChargeKmem(semKmem)
	owner.Track(core.TrackSemaphores, &s.node)
	k.Burn(owner, k.model.SemOp+k.AccountingTax())
	return s
}

// P decrements the semaphore, blocking while it is zero. It returns
// ErrDestroyed when the semaphore is destroyed while (or before) waiting.
func (s *Semaphore) P(c *Ctx) error {
	c.Use(s.k.model.SemOp + s.k.AccountingTax())
	if s.destroyed {
		return ErrDestroyed
	}
	if s.count > 0 {
		s.count--
		return nil
	}
	s.push(c.t)
	c.block() // whoever wakes the thread unlinks it first
	if s.destroyed {
		return ErrDestroyed
	}
	return nil
}

// V increments the semaphore from thread context.
func (s *Semaphore) V(c *Ctx) {
	c.Use(s.k.model.SemOp + s.k.AccountingTax())
	s.signal()
}

// Signal increments the semaphore from interrupt/kernel context, charging
// the operation to chargeTo (typically the path being woken).
func (s *Semaphore) Signal(chargeTo *core.Owner) {
	s.k.Burn(chargeTo, s.k.model.SemOp+s.k.AccountingTax())
	s.signal()
}

func (s *Semaphore) signal() {
	if s.destroyed {
		return
	}
	for s.head != nil {
		t := s.pop()
		if t.state == threadDead {
			continue
		}
		s.k.makeRunnable(t)
		return
	}
	s.count++
}

// push appends t to the waiter list.
func (s *Semaphore) push(t *Thread) {
	t.sem = s
	if s.tail == nil {
		s.head = t
	} else {
		s.tail.semNext = t
	}
	s.tail = t
}

// pop unlinks and returns the oldest waiter; the list must be non-empty.
func (s *Semaphore) pop() *Thread {
	t := s.head
	s.head = t.semNext
	if s.head == nil {
		s.tail = nil
	}
	t.semNext, t.sem = nil, nil
	return t
}

// removeWaiter unlinks t, wherever it waits in the list.
func (s *Semaphore) removeWaiter(t *Thread) {
	var prev *Thread
	for w := s.head; w != nil; prev, w = w, w.semNext {
		if w != t {
			continue
		}
		if prev == nil {
			s.head = t.semNext
		} else {
			prev.semNext = t.semNext
		}
		if s.tail == t {
			s.tail = prev
		}
		t.semNext, t.sem = nil, nil
		return
	}
}

// Destroy tears the semaphore down, unblocking all waiters (they observe
// ErrDestroyed). Idempotent.
func (s *Semaphore) Destroy() {
	if s.destroyed {
		return
	}
	s.owner.Untrack(core.TrackSemaphores, &s.node)
	s.release()
}

// ReleaseOwned implements core.Tracked.
func (s *Semaphore) ReleaseOwned(kill bool) { s.release() }

func (s *Semaphore) release() {
	if s.destroyed {
		return
	}
	s.destroyed = true
	for s.head != nil {
		if t := s.pop(); t.state != threadDead {
			s.k.makeRunnable(t)
		}
	}
	if !s.owner.Dead() {
		s.owner.RefundSemaphore()
		s.owner.RefundKmem(semKmem)
	}
}

// KEvent is an Escort event (§3.2): "Events allow modules to fork new
// threads that start executing a given function after a specified delay."
// A Repeat interval re-arms the event after each firing — the TCP master
// event uses this.
type KEvent struct {
	k     *Kernel
	owner *core.Owner
	// spawnName is the firing thread's name, built once at registration
	// so each firing spawns without formatting.
	spawnName string
	fn        Fn
	ev        sim.Event
	node      lib.Node
	repeat    sim.Cycles
	nextAt    sim.Cycles
	canceled  bool
}

// RegisterEvent arms an event owned by owner: after delay cycles a new
// thread owned by owner runs fn. repeat > 0 re-arms with that interval.
//
//escort:coldpath constructor: registration is charged (ChargeEvent + kmem), not packet path
func (k *Kernel) RegisterEvent(owner *core.Owner, name string, delay, repeat sim.Cycles, fn Fn) *KEvent {
	e := &KEvent{k: k, owner: owner, spawnName: "ev:" + name, fn: fn, repeat: repeat}
	e.node.Value = e
	owner.ChargeEvent()
	owner.ChargeKmem(eventKmem)
	owner.Track(core.TrackEvents, &e.node)
	k.Burn(owner, k.model.EventOp+k.AccountingTax())
	e.nextAt = k.eng.Now() + delay
	e.arm()
	return e
}

// arm schedules the next firing at the absolute target time, so periodic
// events do not drift by their own processing cost.
func (e *KEvent) arm() {
	e.ev = e.k.eng.AtTime(e.nextAt, e.fire)
}

func (e *KEvent) fire() {
	if e.canceled || e.owner.Dead() {
		return
	}
	// Re-arm BEFORE doing the work: firing spawns a thread, whose cost
	// advances the clock and can reach the next period inside this very
	// call (nested interrupt). Arming afterwards would let the nested
	// firing arm as well — exponential event multiplication. Missed
	// periods are skipped (fire late once), the softclock policy.
	if e.repeat > 0 {
		e.nextAt += e.repeat
		if now := e.k.eng.Now(); e.nextAt <= now {
			e.nextAt = now + e.repeat
		}
		e.arm()
	}
	e.k.Burn(e.owner, e.k.model.EventOp)
	e.k.Spawn(e.owner, e.spawnName, e.fn, SpawnOpts{})
	if e.repeat == 0 {
		e.owner.Untrack(core.TrackEvents, &e.node)
		e.retire()
	}
}

// ReleaseOwned implements core.Tracked.
func (e *KEvent) ReleaseOwned(kill bool) { e.retire() }

func (e *KEvent) retire() {
	if e.canceled {
		return
	}
	e.canceled = true
	e.k.eng.Cancel(e.ev)
	if !e.owner.Dead() {
		e.owner.RefundEvent()
		e.owner.RefundKmem(eventKmem)
	}
}

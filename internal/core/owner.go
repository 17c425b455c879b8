// Package core implements the paper's primary contribution: the Owner
// data structure (Figure 4) through which Escort accounts for every
// resource in the system. An owner is either a path or a protection
// domain (plus two pseudo-owners, Kernel and Idle, so that clock-interrupt
// and idle cycles are accounted too — the Table 1 breakdown requires that
// Total Accounted equal Total Measured).
//
// The structure has the paper's three parts: resource counters consulted
// by security policies, tracking lists of live kernel objects enabling
// fast teardown on containment, and scheduler state.
package core

import (
	"fmt"

	"repro/internal/lib"
	"repro/internal/sim"
)

// OwnerType distinguishes the kinds of owner.
type OwnerType int

// Owner types. PathOwner and DomainOwner are the paper's two real owner
// kinds; KernelOwner and IdleOwner are accounting sinks for privileged
// work (softclock) and idle time.
const (
	PathOwner OwnerType = iota
	DomainOwner
	KernelOwner
	IdleOwner
)

func (t OwnerType) String() string {
	switch t {
	case PathOwner:
		return "path"
	case DomainOwner:
		return "domain"
	case KernelOwner:
		return "kernel"
	case IdleOwner:
		return "idle"
	default:
		return fmt.Sprintf("OwnerType(%d)", int(t))
	}
}

// TrackClass indexes the tracking lists in the second part of the Owner
// structure (Figure 4: pages, threads, iobufferlock, event, semaphore).
type TrackClass int

// Tracking list classes.
const (
	TrackPages TrackClass = iota
	TrackThreads
	TrackIOBufferLocks
	TrackEvents
	TrackSemaphores
	numTrackClasses
)

func (c TrackClass) String() string {
	switch c {
	case TrackPages:
		return "pages"
	case TrackThreads:
		return "threads"
	case TrackIOBufferLocks:
		return "iobufferLocks"
	case TrackEvents:
		return "events"
	case TrackSemaphores:
		return "semaphores"
	default:
		return fmt.Sprintf("TrackClass(%d)", int(c))
	}
}

// Tracked is implemented by every kernel object that can appear on an
// owner's tracking list. When the owner is destroyed the kernel walks the
// lists calling ReleaseOwned, which must free the object without blocking
// — this is what makes pathKill reclaim everything (Table 2).
type Tracked interface {
	// ReleaseOwned releases the object because its owner is being
	// destroyed. kill is true for pathKill (no destructors) and false for
	// orderly pathDestroy.
	ReleaseOwned(kill bool)
}

// Limits holds per-owner policy bounds. Zero values mean "unlimited"; the
// policy layer fills these in. MaxRunCycles is the paper's maximum thread
// runtime without yields (2 ms in the CGI experiment).
type Limits struct {
	MaxRunCycles sim.Cycles // longest a thread may run without yielding
	MaxPages     uint64     // memory page budget
	MaxKmem      uint64     // kernel-memory byte budget
}

// Counters is the first part of the Owner structure: the resource counts a
// policy consults to decide whether the owner has violated its bounds.
type Counters struct {
	Kmem       uint64     // bytes of kernel memory for objects in the tracking lists
	Pages      uint64     // memory pages
	Stacks     uint64     // thread stacks (path threads carry one per domain)
	Cycles     sim.Cycles // CPU cycles consumed
	Events     uint64     // live kernel events
	Semaphores uint64     // live semaphores
}

// Owner is the unit of resource accounting. It is embedded as the first
// element of both the path and protection-domain structures, exactly as in
// the paper.
type Owner struct {
	Name string
	Type OwnerType

	// Accounting (Figure 4 part 1).
	Counters Counters

	// Tracking (Figure 4 part 2): doubly-linked lists of the live kernel
	// objects charged to this owner, supporting O(objects) teardown.
	tracked [numTrackClasses]lib.List

	// Scheduling (Figure 4 part 3): the owner's *sched.Share, set by the
	// kernel on first scheduling contact. It is held as any so core
	// stays dependency-free.
	Sched any

	Limits Limits

	dead bool
	slot int32 // index in the ledger's live list while alive

	// group is the ledger's fold record for this owner's metrics group,
	// set by Ledger.Register; nil for an unregistered owner.
	group *Group

	// OnOveruse, when non-nil, is invoked by charge helpers that detect a
	// limit violation; the kernel points this at its containment routine.
	OnOveruse func(o *Owner, what string)
}

// NewOwner returns a live owner.
func NewOwner(name string, t OwnerType) *Owner {
	return &Owner{Name: name, Type: t}
}

// Dead reports whether the owner has been destroyed.
func (o *Owner) Dead() bool { return o.dead }

// MarkDead flags the owner destroyed. Further charges panic, which turns
// use-after-destroy accounting bugs into loud failures in tests. A
// registered owner leaves the ledger's live list and its counters fold
// into its group; the cycles and refunds that still reach it afterwards
// are folded as they land.
func (o *Owner) MarkDead() {
	if o.dead {
		return
	}
	o.dead = true
	if o.group != nil {
		o.group.ledger.retire(o)
	}
}

// Group returns the owner's metrics group, nil if it was never
// registered with a ledger.
func (o *Owner) Group() *Group { return o.group }

// folds reports whether charges to o must also update its group's fold
// record: the owner is dead and was registered.
func (o *Owner) folds() bool { return o.dead && o.group != nil }

func (o *Owner) checkLive(op string) {
	if o.dead {
		panic(fmt.Sprintf("core: %s on dead owner %q", op, o.Name))
	}
}

// ChargeCycles adds CPU consumption. Unlike memory, cycles are never
// refunded: time spent is spent.
func (o *Owner) ChargeCycles(c sim.Cycles) {
	// Cycle charges are permitted on dead owners: the teardown of an owner
	// consumes cycles that are charged to the kernel, but the final
	// charge for the thread being destroyed can land after MarkDead, and
	// an orderly DestroyOwner bills its teardown to the owner after it.
	o.Counters.Cycles += c
	if o.folds() {
		o.group.Cycles += c
	}
}

// ChargeKmem charges n bytes of kernel memory and enforces the budget.
func (o *Owner) ChargeKmem(n uint64) {
	o.checkLive("ChargeKmem")
	o.Counters.Kmem += n
	if o.Limits.MaxKmem > 0 && o.Counters.Kmem > o.Limits.MaxKmem && o.OnOveruse != nil {
		o.OnOveruse(o, "kmem")
	}
}

// RefundKmem returns kernel memory. Refunding more than charged panics.
func (o *Owner) RefundKmem(n uint64) {
	if n > o.Counters.Kmem {
		panic(fmt.Sprintf("core: kmem refund %d exceeds balance %d on %q", n, o.Counters.Kmem, o.Name))
	}
	o.Counters.Kmem -= n
	if o.folds() {
		o.group.Kmem -= n
	}
}

// ChargePages charges memory pages and enforces the budget.
func (o *Owner) ChargePages(n uint64) {
	o.checkLive("ChargePages")
	o.Counters.Pages += n
	if o.Limits.MaxPages > 0 && o.Counters.Pages > o.Limits.MaxPages && o.OnOveruse != nil {
		o.OnOveruse(o, "pages")
	}
}

// RefundPages returns memory pages.
func (o *Owner) RefundPages(n uint64) {
	if n > o.Counters.Pages {
		panic(fmt.Sprintf("core: page refund %d exceeds balance %d on %q", n, o.Counters.Pages, o.Name))
	}
	o.Counters.Pages -= n
	if o.folds() {
		o.group.Pages -= n
	}
}

// ChargeStacks/RefundStacks account thread stacks.
func (o *Owner) ChargeStacks(n uint64) { o.checkLive("ChargeStacks"); o.Counters.Stacks += n }

// RefundStacks returns stacks.
func (o *Owner) RefundStacks(n uint64) {
	if n > o.Counters.Stacks {
		panic(fmt.Sprintf("core: stack refund %d exceeds balance %d on %q", n, o.Counters.Stacks, o.Name))
	}
	o.Counters.Stacks -= n
}

// ChargeEvent/RefundEvent account kernel events.
func (o *Owner) ChargeEvent() { o.checkLive("ChargeEvent"); o.Counters.Events++ }

// RefundEvent decrements the event count.
func (o *Owner) RefundEvent() {
	if o.Counters.Events == 0 {
		panic(fmt.Sprintf("core: event refund below zero on %q", o.Name))
	}
	o.Counters.Events--
}

// ChargeSemaphore/RefundSemaphore account semaphores.
func (o *Owner) ChargeSemaphore() { o.checkLive("ChargeSemaphore"); o.Counters.Semaphores++ }

// RefundSemaphore decrements the semaphore count.
func (o *Owner) RefundSemaphore() {
	if o.Counters.Semaphores == 0 {
		panic(fmt.Sprintf("core: semaphore refund below zero on %q", o.Name))
	}
	o.Counters.Semaphores--
}

// Track links a kernel object onto one of the owner's tracking lists. The
// node's Value must be the Tracked object itself.
func (o *Owner) Track(class TrackClass, n *lib.Node) {
	o.checkLive("Track")
	if _, ok := n.Value.(Tracked); !ok {
		panic("core: tracked node value does not implement Tracked")
	}
	o.tracked[class].PushBack(n)
}

// Untrack unlinks a node from a tracking list (no-op if already removed).
func (o *Owner) Untrack(class TrackClass, n *lib.Node) {
	o.tracked[class].Remove(n)
}

// TrackedCount returns the number of live objects on one tracking list.
func (o *Owner) TrackedCount(class TrackClass) int {
	return o.tracked[class].Len()
}

// ReleaseAll walks every tracking list releasing the objects, in the fixed
// order semaphores, events, IOBuffer locks, threads, pages. Semaphores
// first so foreign waiters unblock before threads die; pages last so
// objects that live in owner memory can still be inspected while released.
// It returns the number of objects released.
func (o *Owner) ReleaseAll(kill bool) int {
	order := []TrackClass{TrackSemaphores, TrackEvents, TrackIOBufferLocks, TrackThreads, TrackPages}
	released := 0
	for _, class := range order {
		// Objects may remove themselves (and even siblings) during release,
		// so always pop from the head rather than iterating.
		for {
			n := o.tracked[class].Front()
			if n == nil {
				break
			}
			o.tracked[class].Remove(n)
			n.Value.(Tracked).ReleaseOwned(kill)
			released++
		}
	}
	return released
}

// leak describes the first counted resource or tracked object the owner
// still holds, nil if none.
func (o *Owner) leak() error {
	c := o.Counters
	if c.Kmem != 0 || c.Pages != 0 || c.Stacks != 0 || c.Events != 0 || c.Semaphores != 0 {
		return fmt.Errorf("dead owner %q leaks: kmem=%d pages=%d stacks=%d events=%d sems=%d",
			o.Name, c.Kmem, c.Pages, c.Stacks, c.Events, c.Semaphores)
	}
	for cl := TrackClass(0); cl < numTrackClasses; cl++ {
		if n := o.TrackedCount(cl); n != 0 {
			return fmt.Errorf("dead owner %q still tracks %d %v", o.Name, n, cl)
		}
	}
	return nil
}

// String renders the owner for logs.
func (o *Owner) String() string {
	return fmt.Sprintf("%s(%s)", o.Name, o.Type)
}

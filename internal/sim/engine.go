// Package sim provides the deterministic discrete-event engine that drives
// the Escort simulation. Time is measured in virtual CPU cycles of the
// simulated server (the 300 MHz Alpha 21064 of the paper's testbed,
// §4.1.1); every cycle the clock advances is attributable to exactly one
// cause, which is what lets the reproduction check the paper's Table 1
// "Total Accounted == Total Measured" invariant. The engine supports the
// one unusual operation the reproduction depends on: ConsumeCPU, which
// advances the clock by a given amount of CPU work while firing any events
// that fall due inside the interval. Because event handlers may themselves
// call ConsumeCPU (an interrupt handler charging its own cycles), the cost
// of interrupt processing naturally delays the interrupted computation,
// exactly as on real hardware.
//
// The scheduling core is allocation-free in steady state: event records
// come from a per-engine freelist and are recycled after they fire or are
// canceled, and one binary min-heap ordered by (due cycle, schedule
// sequence) holds every pending event, so equal-time events fire in the
// order they were scheduled. See DESIGN.md ("Performance") for why a
// single heap rather than a timer wheel.
package sim

import "fmt"

// Cycles counts virtual CPU cycles. It doubles as the simulation timestamp.
type Cycles uint64

// CyclesPerSecond is the simulated server clock rate: a 300 MHz AlphaPC
// 21064, per the paper's experimental setup.
const CyclesPerSecond Cycles = 300_000_000

// CyclesPerMillisecond is a convenience constant (300k cycles per ms).
const CyclesPerMillisecond = CyclesPerSecond / 1000

// CyclesPerMicrosecond is a convenience constant (300 cycles per µs).
const CyclesPerMicrosecond = CyclesPerSecond / 1_000_000

// Seconds converts a cycle count to seconds.
func (c Cycles) Seconds() float64 { return float64(c) / float64(CyclesPerSecond) }

// Milliseconds converts a cycle count to milliseconds.
func (c Cycles) Milliseconds() float64 { return float64(c) / float64(CyclesPerMillisecond) }

// event is the engine-owned record of a scheduled callback. Records are
// pooled: after an event fires or is canceled its record returns to the
// engine's freelist and its generation is bumped, so a stale Event handle
// can never reach a recycled record.
type event struct {
	at  Cycles
	seq uint64 // tie-break so equal-time events fire in schedule order
	gen uint64 // incremented on every release; Event handles capture it
	// fn(arg) is the callback. AtTimeArg stores a package-level handler
	// and the object it acts on, so a per-object timer needs no closure;
	// AtTime stores runClosure and the closure itself (a func value is
	// one pointer, so it fits in arg without allocating).
	fn  func(any)
	arg any

	idx  int    // heap index while pending, -1 otherwise
	next *event // freelist link while free
}

// Event is a cancelable handle to a scheduled callback, returned by After,
// AtTime and their Arg forms. It is a small value (safe to copy, compare
// and overwrite); the zero Event refers to nothing and Cancel on it is a
// no-op. Events are single-shot; rescheduling is done by the callback
// re-arming itself. The handle carries the generation of the record it
// was issued for, so a handle kept after its event fired (or was
// canceled) is inert even once the engine recycles the record for an
// unrelated event.
type Event struct {
	p   *event
	gen uint64
}

// IsZero reports whether the handle is the zero Event (never issued).
func (h Event) IsZero() bool { return h.p == nil }

// Engine is a single-clock discrete-event simulator. It is not safe for
// concurrent use; the Escort kernel guarantees only one coroutine touches
// the engine at a time (the parallel sweep runner gives every worker its
// own Engine).
type Engine struct {
	now    Cycles
	queue  eventHeap // every pending event, ordered by (at, seq)
	free   *event    // freelist of recycled records, linked via next
	seq    uint64
	live   int // scheduled, not-yet-fired, not-canceled events
	masked int // >0 while an event handler runs: interrupts are masked

	// IdleSink, when non-nil, receives the cycles spent idle in
	// AdvanceToNextEvent and AdvanceTo. The kernel points this at the
	// Idle pseudo-owner so idle time shows up in the ledger (Table 1).
	// It is invoked after the clock has advanced past the idle span, so
	// Now() is the span's end.
	IdleSink func(Cycles)

	// OnFire, when non-nil, is called after each event handler returns
	// with the interval the handler occupied: began is the fire time,
	// ended is Now() after the handler's own CPU consumption. The
	// observability layer uses it to trace interrupt processing without
	// sim importing the tracer.
	OnFire func(began, ended Cycles)
}

// New returns an engine with the clock at zero.
//
//escort:coldpath constructor, once per simulation
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Cycles { return e.now }

// Pending returns the number of scheduled (uncanceled) events. It is a
// counter maintained by schedule/cancel/fire, not a queue scan.
func (e *Engine) Pending() int { return e.live }

// After schedules fn to run delay cycles from now and returns a handle so
// it can be canceled.
func (e *Engine) After(delay Cycles, fn func()) Event {
	return e.AtTime(e.now+delay, fn)
}

// AtTime schedules fn at an absolute cycle count. Scheduling in the past is
// a programming error and panics: the simulation would silently reorder
// history otherwise.
func (e *Engine) AtTime(at Cycles, fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.AtTimeArg(at, runClosure, fn)
}

func runClosure(fn any) { fn.(func())() }

// AfterArg schedules fn(arg) to run delay cycles from now. It is After
// for callers that would otherwise build a closure per event: fn is a
// package-level function and arg the object it acts on (a pointer
// stored in an interface does not allocate).
func (e *Engine) AfterArg(delay Cycles, fn func(any), arg any) Event {
	return e.AtTimeArg(e.now+delay, fn, arg)
}

// AtTimeArg schedules fn(arg) at an absolute cycle count, in the same
// (at, seq) order as AtTime.
func (e *Engine) AtTimeArg(at Cycles, fn func(any), arg any) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %d, before now %d", at, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	ev.arg = arg
	e.seq++
	e.live++
	e.queue.push(ev)
	return Event{p: ev, gen: ev.gen}
}

// Cancel removes a scheduled event. It reports whether the event was still
// pending (false for the zero handle, or if the event already fired or was
// canceled — including when the record has since been recycled for a
// different event, which the handle's generation detects).
func (e *Engine) Cancel(h Event) bool {
	ev := h.p
	if ev == nil || ev.gen != h.gen {
		return false
	}
	// Generation matches, so the record still belongs to this handle's
	// incarnation and must be in the heap; remove panics if it is not.
	e.queue.remove(ev)
	e.live--
	e.release(ev)
	return true
}

// alloc takes an event record from the freelist, or makes one.
func (e *Engine) alloc() *event {
	ev := e.free
	if ev == nil {
		return &event{idx: -1} //escort:coldpath freelist miss: pool growth, amortized to zero in steady state
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// release recycles a record: the generation bump invalidates every handle
// issued for the old incarnation, and dropping fn and arg releases what
// they referenced.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.arg = nil
	ev.idx = -1
	ev.next = e.free
	e.free = ev
}

// ConsumeCPU advances the clock by c cycles of CPU work. Events falling
// due within the interval fire at their scheduled times; a handler's own
// CPU consumption pushes the remaining work later — the interrupted
// computation still gets its full c cycles, it just finishes later.
//
// Handlers run with interrupts masked (as on real hardware): CPU they
// consume advances the clock without firing further events; anything
// that became due meanwhile fires, late, once the outer level resumes.
// This bounds the interrupt nesting at one level and keeps a periodic
// event whose processing exceeds its period from recursing forever.
func (e *Engine) ConsumeCPU(c Cycles) {
	if e.masked > 0 {
		e.now += c
		return
	}
	remaining := c
	for remaining > 0 {
		ev := e.queue.peek()
		if ev == nil || ev.at >= e.now+remaining {
			e.now += remaining
			return
		}
		if ev.at > e.now {
			step := ev.at - e.now
			e.now = ev.at
			remaining -= step
		}
		e.fire(ev) // overdue events fire immediately, without advancing
	}
}

// AdvanceToNextEvent is used when the CPU is idle: it jumps the clock to
// the next pending event and fires it, reporting the idle cycles skipped.
// ok is false when no events are pending.
func (e *Engine) AdvanceToNextEvent() (idle Cycles, ok bool) {
	ev := e.queue.peek()
	if ev == nil {
		return 0, false
	}
	if ev.at > e.now {
		idle = ev.at - e.now
		e.now = ev.at
		if e.IdleSink != nil && idle > 0 {
			e.IdleSink(idle)
		}
	}
	e.fire(ev)
	return idle, true
}

// AdvanceTo idles the CPU forward to absolute time t, firing any events on
// the way. Events exactly at t fire. Idle time is reported to IdleSink.
func (e *Engine) AdvanceTo(t Cycles) {
	for {
		ev := e.queue.peek()
		if ev == nil || ev.at > t {
			break
		}
		if ev.at > e.now {
			idle := ev.at - e.now
			e.now = ev.at
			if e.IdleSink != nil && idle > 0 {
				e.IdleSink(idle)
			}
		}
		e.fire(ev)
	}
	if t > e.now {
		idle := t - e.now
		e.now = t
		if e.IdleSink != nil {
			e.IdleSink(idle)
		}
	}
}

// Drain fires events until the queue is empty or the clock passes limit.
// It is used by purely event-driven simulations (the Linux baseline and the
// traffic generators) that have no cycle-level CPU to model.
func (e *Engine) Drain(limit Cycles) {
	for {
		ev := e.queue.peek()
		if ev == nil || ev.at > limit {
			return
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		e.fire(ev)
	}
}

// NextEventAt reports the time of the earliest pending event.
func (e *Engine) NextEventAt() (Cycles, bool) {
	ev := e.queue.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// fire removes ev (the earliest pending event, as returned by peek), runs
// its handler with interrupts masked, and recycles the record. The record
// goes back to the freelist before the handler runs, so a handler that
// re-arms immediately reuses it without allocating.
func (e *Engine) fire(ev *event) {
	e.queue.remove(ev)
	e.live--
	fn, arg := ev.fn, ev.arg
	e.release(ev)
	began := e.now
	e.masked++
	fn(arg)
	e.masked--
	if e.OnFire != nil {
		e.OnFire(began, e.now)
	}
}

// eventHeap is a binary min-heap ordered by (at, seq). A hand-rolled heap
// (rather than container/heap) keeps event pointers stable and avoids
// interface boxing on the hot path.
type eventHeap []*event

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	ev.idx = len(*h) - 1
	h.up(ev.idx)
}

// peek returns the earliest pending event without removing it, nil when
// none is pending.
func (h *eventHeap) peek() *event {
	if len(*h) == 0 {
		return nil
	}
	return (*h)[0]
}

// remove takes a pending event out of the heap. An idx that does not
// point back at ev means the record is live in no queue: a bookkeeping
// bug that must not be papered over, since the caller would then count
// the event gone and recycle a record the heap may still hold.
func (h *eventHeap) remove(ev *event) {
	if ev.idx < 0 || ev.idx >= len(*h) || (*h)[ev.idx] != ev {
		panic(fmt.Sprintf("sim: live event at %d not in the heap (idx %d, heap size %d)", ev.at, ev.idx, len(*h)))
	}
	h.removeAt(ev.idx)
}

func (h *eventHeap) removeAt(i int) {
	old := *h
	n := len(old) - 1
	old[i].idx = -1
	if i != n {
		old[i] = old[n]
		old[i].idx = i
	}
	old[n] = nil
	*h = old[:n]
	if i < n {
		if !h.down(i) {
			h.up(i)
		}
	}
}

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) bool {
	start := i
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		h.swap(i, least)
		i = least
	}
	return i > start
}

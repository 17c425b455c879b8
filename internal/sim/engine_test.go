package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestAfterFiresInOrder(t *testing.T) {
	e := New()
	var got []int
	e.After(30, func() { got = append(got, 3) })
	e.After(10, func() { got = append(got, 1) })
	e.After(20, func() { got = append(got, 2) })
	e.Drain(100)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("now = %d, want 30", e.Now())
	}
}

func TestEqualTimeEventsFireInScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(50, func() { got = append(got, i) })
	}
	e.Drain(50)
	for i := range got {
		if got[i] != i {
			t.Fatalf("order %v; want ascending schedule order", got)
		}
	}
}

func TestConsumeCPUAdvancesExactly(t *testing.T) {
	e := New()
	e.ConsumeCPU(12345)
	if e.Now() != 12345 {
		t.Fatalf("now = %d, want 12345", e.Now())
	}
}

func TestConsumeCPUFiresDueEvents(t *testing.T) {
	e := New()
	var firedAt Cycles
	e.After(100, func() { firedAt = e.Now() })
	e.ConsumeCPU(500)
	if firedAt != 100 {
		t.Fatalf("event fired at %d, want 100", firedAt)
	}
	if e.Now() != 500 {
		t.Fatalf("now = %d, want 500", e.Now())
	}
}

func TestInterruptStealsCPUTime(t *testing.T) {
	// A thread consumes 1000 cycles; an interrupt at t=400 consumes 250
	// cycles of its own. The thread's work must still total 1000 cycles of
	// CPU, so it finishes at 1250.
	e := New()
	e.After(400, func() { e.ConsumeCPU(250) })
	e.ConsumeCPU(1000)
	if e.Now() != 1250 {
		t.Fatalf("now = %d, want 1250 (1000 work + 250 interrupt)", e.Now())
	}
}

func TestNestedInterrupts(t *testing.T) {
	e := New()
	e.After(100, func() {
		e.After(50, func() { e.ConsumeCPU(10) }) // fires inside the outer interrupt
		e.ConsumeCPU(100)
	})
	e.ConsumeCPU(1000)
	if e.Now() != 1110 {
		t.Fatalf("now = %d, want 1110", e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.After(10, func() { fired = true })
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(ev) {
		t.Fatal("second Cancel returned true")
	}
	e.Drain(100)
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	e := New()
	var got []int
	var evs []Event
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, e.After(Cycles(10+i), func() { got = append(got, i) }))
	}
	e.Cancel(evs[7])
	e.Cancel(evs[0])
	e.Cancel(evs[19])
	e.Drain(1000)
	if len(got) != 17 {
		t.Fatalf("fired %d events, want 17", len(got))
	}
	for _, v := range got {
		if v == 7 || v == 0 || v == 19 {
			t.Fatalf("canceled event %d fired", v)
		}
	}
}

func TestAdvanceToNextEventReportsIdle(t *testing.T) {
	e := New()
	var idleSeen Cycles
	e.IdleSink = func(c Cycles) { idleSeen += c }
	e.After(777, func() {})
	idle, ok := e.AdvanceToNextEvent()
	if !ok || idle != 777 {
		t.Fatalf("idle = %d ok=%v, want 777 true", idle, ok)
	}
	if idleSeen != 777 {
		t.Fatalf("idle sink got %d, want 777", idleSeen)
	}
	if _, ok := e.AdvanceToNextEvent(); ok {
		t.Fatal("AdvanceToNextEvent with empty queue returned ok")
	}
}

func TestAdvanceToIdlesAndFires(t *testing.T) {
	e := New()
	var idleSeen Cycles
	e.IdleSink = func(c Cycles) { idleSeen += c }
	fired := 0
	e.After(100, func() { fired++ })
	e.After(300, func() { fired++ })
	e.After(900, func() { fired++ })
	e.AdvanceTo(500)
	if fired != 2 {
		t.Fatalf("fired %d, want 2", fired)
	}
	if e.Now() != 500 {
		t.Fatalf("now = %d, want 500", e.Now())
	}
	if idleSeen != 500 {
		t.Fatalf("idle = %d, want 500 (all skipped time is idle)", idleSeen)
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := New()
	e.ConsumeCPU(100)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.AtTime(50, func() {})
}

func TestEventSelfRearm(t *testing.T) {
	e := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	e.Drain(1000)
	if count != 5 {
		t.Fatalf("ticks = %d, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("now = %d, want 50", e.Now())
	}
}

// TestHeapOrderProperty drives the event heap with arbitrary delays and
// checks events always fire in non-decreasing time order.
func TestHeapOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var times []Cycles
		for _, d := range delays {
			e.After(Cycles(d), func() { times = append(times, e.Now()) })
		}
		e.Drain(1 << 40)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestConsumeCPUConservesWork checks that however events interleave, the
// final clock equals total thread work plus total interrupt work.
func TestConsumeCPUConservesWork(t *testing.T) {
	f := func(work uint16, intrs []uint8) bool {
		e := New()
		var intrTotal Cycles
		for i, c := range intrs {
			c := Cycles(c)
			intrTotal += c
			e.After(Cycles(i*13), func() { e.ConsumeCPU(c) })
		}
		w := Cycles(work)
		// Thread work must be long enough to reach the last interrupt,
		// otherwise the tail interrupts fire while idle, which still
		// advances the clock the same total amount via Drain.
		e.ConsumeCPU(w)
		e.Drain(1 << 40)
		lastArm := Cycles(0)
		if len(intrs) > 0 {
			lastArm = Cycles((len(intrs) - 1) * 13)
		}
		min := w + intrTotal
		if lastArm > w {
			// Some interrupts fired after the work finished; the clock is
			// then at least the last arm time.
			if e.Now() < lastArm {
				return false
			}
			return true
		}
		return e.Now() == min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refEvent is one pending event of refModel. Ids are issued in schedule
// order, so the id doubles as the engine's sequence number.
type refEvent struct {
	at Cycles
	id int
}

// firing records one handler run: which event, and the clock when it ran.
type firing struct {
	id int
	at Cycles
}

// refModel is the reference the engine is checked against: a plain slice
// of pending events, popped by the minimum (at, id) with a linear scan,
// and the engine's clock rules written out without any queue structure.
type refModel struct {
	now     Cycles
	nextID  int
	pending []refEvent
	fired   []firing
}

func (m *refModel) schedule(delay Cycles) {
	m.pending = append(m.pending, refEvent{at: m.now + delay, id: m.nextID})
	m.nextID++
}

func (m *refModel) cancel(id int) bool {
	for i, ev := range m.pending {
		if ev.id == id {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return true
		}
	}
	return false
}

// min returns the index of the earliest pending event, -1 when none.
func (m *refModel) min() int {
	best := -1
	for i, ev := range m.pending {
		if best < 0 || ev.at < m.pending[best].at ||
			(ev.at == m.pending[best].at && ev.id < m.pending[best].id) {
			best = i
		}
	}
	return best
}

// fire pops pending[i] and plays its handler: record the firing, burn the
// handler's CPU with interrupts masked, then re-arm if the event does.
func (m *refModel) fire(i int) {
	ev := m.pending[i]
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
	m.fired = append(m.fired, firing{ev.id, m.now})
	rearm, cpu := handlerSpec(ev.id)
	m.now += cpu
	if rearm > 0 {
		m.schedule(rearm)
	}
}

func (m *refModel) consumeCPU(c Cycles) {
	for remaining := c; ; {
		i := m.min()
		if i < 0 || m.pending[i].at >= m.now+remaining {
			m.now += remaining
			return
		}
		if at := m.pending[i].at; at > m.now {
			remaining -= at - m.now
			m.now = at
		}
		m.fire(i)
	}
}

func (m *refModel) advanceToNextEvent() (Cycles, bool) {
	i := m.min()
	if i < 0 {
		return 0, false
	}
	var idle Cycles
	if at := m.pending[i].at; at > m.now {
		idle = at - m.now
		m.now = at
	}
	m.fire(i)
	return idle, true
}

func (m *refModel) advanceTo(t Cycles) {
	m.drain(t)
	if t > m.now {
		m.now = t
	}
}

func (m *refModel) drain(limit Cycles) {
	for {
		i := m.min()
		if i < 0 || m.pending[i].at > limit {
			return
		}
		if at := m.pending[i].at; at > m.now {
			m.now = at
		}
		m.fire(i)
	}
}

// handlerSpec fixes what event id's handler does, identically for the
// engine and the model: consume cpu cycles of masked CPU, then re-arm a
// new event rearm cycles later (0: no re-arm). About one event in eight
// re-arms, a third of those one cycle later.
func handlerSpec(id int) (rearm, cpu Cycles) {
	h := uint64(id+1) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	if h%8 == 0 {
		rearm = 1
		if (h>>4)%3 != 0 {
			rearm += Cycles(h>>8) % (1 << 12)
		}
	}
	if (h>>32)%4 == 0 {
		cpu = Cycles(h>>40) % 3000
	}
	return rearm, cpu
}

// engineRun drives an Engine through the same operations as a refModel.
type engineRun struct {
	e       *Engine
	nextID  int
	handles []Event // by event id
	fired   []firing
}

func (r *engineRun) schedule(delay Cycles) {
	id := r.nextID
	r.nextID++
	r.handles = append(r.handles, r.e.After(delay, func() {
		r.fired = append(r.fired, firing{id, r.e.Now()})
		rearm, cpu := handlerSpec(id)
		r.e.ConsumeCPU(cpu)
		if rearm > 0 {
			r.schedule(rearm)
		}
	}))
}

// TestEngineMatchesReferenceModel is the randomized ordering test: 1e5
// random operations run on the engine and on refModel, and after every
// operation the two must agree on every firing (event and clock), the
// clock, the pending count and each Cancel's result. The operations
// schedule at mixed delays (zero, and ties with a pending event's cycle,
// included), cancel pending events, cancel through stale handles whose
// records the engine has recycled, re-arm from inside handlers
// (handlerSpec), and advance the clock by ConsumeCPU, AdvanceToNextEvent
// and AdvanceTo while handlers burn masked CPU.
func TestEngineMatchesReferenceModel(t *testing.T) {
	rng := NewRand(20260805)
	r := &engineRun{e: New()}
	m := &refModel{}
	var ties, cancels, staleCancels int
	checked := 0 // firings already compared
	check := func(op int) {
		t.Helper()
		if r.e.Now() != m.now {
			t.Fatalf("op %d: clock %d, model %d", op, r.e.Now(), m.now)
		}
		if r.e.Pending() != len(m.pending) {
			t.Fatalf("op %d: pending %d, model %d", op, r.e.Pending(), len(m.pending))
		}
		if r.nextID != m.nextID || len(r.fired) != len(m.fired) {
			t.Fatalf("op %d: %d scheduled and %d fired, model %d and %d",
				op, r.nextID, len(r.fired), m.nextID, len(m.fired))
		}
		for ; checked < len(r.fired); checked++ {
			if r.fired[checked] != m.fired[checked] {
				t.Fatalf("op %d: firing %d is %+v, model %+v", op, checked, r.fired[checked], m.fired[checked])
			}
		}
	}
	const ops = 100_000
	for op := 0; op < ops; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // schedule
			var delay Cycles
			switch rng.Intn(6) {
			case 0:
				delay = rng.Cycles(1 << 6)
			case 1:
				delay = rng.Cycles(1 << 14)
			case 2:
				delay = rng.Cycles(1 << 22)
			case 3:
				delay = rng.Cycles(1 << 26)
			case 4:
				delay = Cycles(rng.Intn(3)) // due now or nearly now
			case 5: // same cycle as a pending event not yet overdue
				if n := len(m.pending); n > 0 {
					if at := m.pending[rng.Intn(n)].at; at >= m.now {
						delay = at - m.now
						ties++
					}
				}
			}
			r.schedule(delay)
			m.schedule(delay)
		case 4, 5, 6:
			c := rng.Cycles(1 << 16)
			r.e.ConsumeCPU(c)
			m.consumeCPU(c)
		case 7: // cancel a pending event, or any issued one (mostly stale)
			if r.nextID > 0 {
				id := rng.Intn(r.nextID)
				if n := len(m.pending); n > 0 && rng.Intn(2) == 0 {
					id = m.pending[rng.Intn(n)].id
				}
				got, want := r.e.Cancel(r.handles[id]), m.cancel(id)
				if got != want {
					t.Fatalf("op %d: Cancel(event %d) = %v, model %v", op, id, got, want)
				}
				cancels++
				if !got {
					staleCancels++
				}
			}
		case 8:
			idle, ok := r.e.AdvanceToNextEvent()
			wantIdle, wantOK := m.advanceToNextEvent()
			if idle != wantIdle || ok != wantOK {
				t.Fatalf("op %d: AdvanceToNextEvent = %d, %v; model %d, %v", op, idle, ok, wantIdle, wantOK)
			}
		case 9:
			target := m.now + rng.Cycles(1<<20)
			r.e.AdvanceTo(target)
			m.advanceTo(target)
		}
		check(op)
	}
	r.e.Drain(1 << 62)
	m.drain(1 << 62)
	check(ops)
	rearms := 0
	for _, f := range r.fired {
		if rearm, _ := handlerSpec(f.id); rearm > 0 {
			rearms++
		}
	}
	t.Logf("%d fired, %d re-armed, %d ties, %d cancels (%d stale)",
		len(r.fired), rearms, ties, cancels, staleCancels)
	if ties == 0 || rearms == 0 || staleCancels == 0 || cancels == staleCancels {
		t.Fatalf("run exercised too little: %d fired, %d re-armed, %d ties, %d cancels (%d stale)",
			len(r.fired), rearms, ties, cancels, staleCancels)
	}
}

// TestStaleHandleCannotCancelRecycledEvent is the generation-counter
// regression test: once an event has fired, its record returns to the
// pool and is reused by the next schedule; a handle kept from the fired
// event must not be able to cancel the new one.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := New()
	h1 := e.After(10, func() {})
	e.Drain(100) // h1 fires; its record is recycled
	fired := false
	h2 := e.After(10, func() { fired = true })
	if e.Cancel(h1) {
		t.Fatal("stale handle canceled something")
	}
	e.Drain(200)
	if !fired {
		t.Fatal("stale Cancel killed the recycled event")
	}
	if e.Cancel(h2) {
		t.Fatal("Cancel after fire reported true")
	}
}

// TestStaleHandleAfterCancelIsInert is the same hazard via the cancel
// path: a canceled event's record recycles, and the old handle must stay
// dead even though the record is live again.
func TestStaleHandleAfterCancelIsInert(t *testing.T) {
	e := New()
	h1 := e.After(10, func() { t.Fatal("canceled event fired") })
	if !e.Cancel(h1) {
		t.Fatal("first Cancel failed")
	}
	fired := false
	h2 := e.After(10, func() { fired = true }) // reuses h1's record
	if e.Cancel(h1) {
		t.Fatal("double Cancel through a stale handle succeeded")
	}
	e.Drain(100)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	_ = h2
}

// TestZeroEventHandle checks the zero handle is inert.
func TestZeroEventHandle(t *testing.T) {
	e := New()
	var h Event
	if !h.IsZero() {
		t.Fatal("zero handle not IsZero")
	}
	if e.Cancel(h) {
		t.Fatal("Cancel of zero handle returned true")
	}
	if got := e.After(5, func() {}); got.IsZero() {
		t.Fatal("issued handle reports IsZero")
	}
}

// TestPendingCounter checks Pending is maintained by schedule, cancel and
// fire rather than scanned.
func TestPendingCounter(t *testing.T) {
	e := New()
	var hs []Event
	for i := 0; i < 10; i++ {
		hs = append(hs, e.After(Cycles(100+i), func() {}))
	}
	e.After(1<<30, func() {}) // far beyond the rest
	if got := e.Pending(); got != 11 {
		t.Fatalf("Pending = %d, want 11", got)
	}
	e.Cancel(hs[3])
	e.Cancel(hs[3]) // idempotent
	if got := e.Pending(); got != 10 {
		t.Fatalf("Pending after cancel = %d, want 10", got)
	}
	e.Drain(200)
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after drain = %d, want 1", got)
	}
	e.Drain(1 << 31)
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after full drain = %d, want 0", got)
	}
}

// TestCancelPanicsOnEventNotInHeap pins the queue-membership guard: a
// live handle whose record claims a heap slot it does not hold is a
// bookkeeping bug, and Cancel must stop there rather than count the
// event gone and recycle a record the heap may still reference.
func TestCancelPanicsOnEventNotInHeap(t *testing.T) {
	e := New()
	h := e.After(10, func() {})
	e.After(20, func() {})
	h.p.idx = 1 // the slot of the other event
	defer func() {
		if recover() == nil {
			t.Fatal("Cancel of an event not in the heap did not panic")
		}
		if got := e.Pending(); got != 2 {
			t.Fatalf("Pending = %d after the refused Cancel, want 2", got)
		}
	}()
	e.Cancel(h)
}

// TestScheduleFireDoesNotAllocate pins the freelist claim: in steady
// state, schedule+fire cycles allocate nothing.
func TestScheduleFireDoesNotAllocate(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the record pool and grow the heap's backing array.
	for i := 0; i < 64; i++ {
		e.After(Cycles(i%7), fn)
	}
	e.Drain(1 << 30)
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(13, fn)
		e.Drain(e.Now() + 100)
	})
	if allocs > 0 {
		t.Fatalf("schedule+fire allocates %.1f objects per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		h := e.After(1000, fn)
		e.Cancel(h)
	})
	if allocs > 0 {
		t.Fatalf("schedule+cancel allocates %.1f objects per op, want 0", allocs)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := NewRand(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRand(42).Uint64() == c.Uint64() {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandBounds(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
		if c := r.Cycles(99); c >= 99 {
			t.Fatalf("Cycles out of range: %d", c)
		}
	}
}

func TestJitter(t *testing.T) {
	r := NewRand(9)
	base := Cycles(1000)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(base, 0.1)
		if v < 900 || v > 1100 {
			t.Fatalf("jitter out of ±10%% band: %d", v)
		}
	}
	if r.Jitter(0, 0.5) != 0 {
		t.Fatal("jitter of zero base should be zero")
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("zero-fraction jitter should be identity")
	}
}

// BenchmarkEngineScheduleFire measures the engine hot path: one
// schedule+fire per op, steady state (pooled records).
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := New()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(97, fn)
		e.Drain(e.Now() + 1000)
	}
}

// BenchmarkEngineScheduleCancel measures the schedule+cancel pair with a
// standing population of 256 timers, the TCP-timer-like pattern
// (schedule a timeout, then cancel it when the ACK arrives).
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := New()
	fn := func() {}
	var standing [256]Event
	for i := range standing {
		standing[i] = e.After(Cycles(1000+i*31), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := e.After(Cycles(500+i%1024), fn)
		e.Cancel(h)
	}
}

// TestArgEventsShareOrderAndPool pins the arg-carrying form: AtTimeArg
// events interleave with closure events in (at, seq) order, cancel like
// them, drop their argument on release, and allocate nothing in steady
// state when the argument is a pointer.
func TestArgEventsShareOrderAndPool(t *testing.T) {
	e := New()
	var log []int
	record := func(a any) { log = append(log, *a.(*int)) }
	vals := []int{0, 1, 2, 3}
	e.AtTimeArg(10, record, &vals[1])
	e.AtTime(10, func() { log = append(log, 9) })
	e.AfterArg(5, record, &vals[0])
	h := e.AtTimeArg(10, record, &vals[3])
	e.AtTimeArg(10, record, &vals[2])
	if !e.Cancel(h) {
		t.Fatal("Cancel of a pending arg event reported false")
	}
	e.Drain(100)
	if want := []int{0, 1, 9, 2}; !slices.Equal(log, want) {
		t.Fatalf("fire order %v, want %v", log, want)
	}
	for p := e.free; p != nil; p = p.next {
		if p.fn != nil || p.arg != nil {
			t.Fatal("a released record still references its callback or argument")
		}
	}

	n := 0
	bump := func(a any) { *a.(*int)++ }
	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterArg(13, bump, &n)
		e.Drain(e.Now() + 100)
		e.Cancel(e.AfterArg(1000, bump, &n))
	})
	if allocs > 0 {
		t.Fatalf("arg schedule+fire+cancel allocates %.1f objects per op, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("arg handler never ran")
	}
}

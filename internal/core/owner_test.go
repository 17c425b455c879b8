package core

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/lib"
	"repro/internal/sim"
)

type fakeObj struct {
	node     lib.Node
	released bool
	killed   bool
	onRel    func()
}

func newFakeObj() *fakeObj {
	f := &fakeObj{}
	f.node.Value = f
	return f
}

func (f *fakeObj) ReleaseOwned(kill bool) {
	f.released = true
	f.killed = kill
	if f.onRel != nil {
		f.onRel()
	}
}

func TestChargeRefundRoundTrip(t *testing.T) {
	o := NewOwner("p1", PathOwner)
	o.ChargeKmem(100)
	o.ChargePages(3)
	o.ChargeStacks(2)
	o.ChargeEvent()
	o.ChargeSemaphore()
	o.ChargeCycles(500)
	c := o.Counters
	if c.Kmem != 100 || c.Pages != 3 || c.Stacks != 2 || c.Events != 1 || c.Semaphores != 1 || c.Cycles != 500 {
		t.Fatalf("counters = %+v", c)
	}
	o.RefundKmem(100)
	o.RefundPages(3)
	o.RefundStacks(2)
	o.RefundEvent()
	o.RefundSemaphore()
	c = o.Counters
	if c.Kmem != 0 || c.Pages != 0 || c.Stacks != 0 || c.Events != 0 || c.Semaphores != 0 {
		t.Fatalf("counters after refund = %+v", c)
	}
	if c.Cycles != 500 {
		t.Fatal("cycles must never be refunded")
	}
}

func TestOverRefundPanics(t *testing.T) {
	cases := map[string]func(o *Owner){
		"kmem":  func(o *Owner) { o.RefundKmem(1) },
		"pages": func(o *Owner) { o.RefundPages(1) },
		"stack": func(o *Owner) { o.RefundStacks(1) },
		"event": func(o *Owner) { o.RefundEvent() },
		"sem":   func(o *Owner) { o.RefundSemaphore() },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: over-refund did not panic", name)
				}
			}()
			fn(NewOwner("x", PathOwner))
		}()
	}
}

func TestChargeOnDeadOwnerPanics(t *testing.T) {
	o := NewOwner("x", PathOwner)
	o.MarkDead()
	defer func() {
		if recover() == nil {
			t.Fatal("charge on dead owner did not panic")
		}
	}()
	o.ChargeKmem(1)
}

func TestCycleChargeOnDeadOwnerAllowed(t *testing.T) {
	o := NewOwner("x", PathOwner)
	o.MarkDead()
	o.ChargeCycles(10) // must not panic: teardown tail charges land here
	if o.Counters.Cycles != 10 {
		t.Fatal("cycle charge on dead owner lost")
	}
}

func TestOveruseHook(t *testing.T) {
	o := NewOwner("x", PathOwner)
	o.Limits.MaxKmem = 100
	o.Limits.MaxPages = 2
	var fired []string
	o.OnOveruse = func(_ *Owner, what string) { fired = append(fired, what) }
	o.ChargeKmem(100) // at limit: no violation
	if len(fired) != 0 {
		t.Fatal("hook fired at exactly the limit")
	}
	o.ChargeKmem(1)
	o.ChargePages(3)
	if len(fired) != 2 || fired[0] != "kmem" || fired[1] != "pages" {
		t.Fatalf("fired = %v", fired)
	}
}

func TestTrackReleaseAll(t *testing.T) {
	o := NewOwner("x", PathOwner)
	objs := make([]*fakeObj, 0, 10)
	classes := []TrackClass{TrackPages, TrackThreads, TrackIOBufferLocks, TrackEvents, TrackSemaphores}
	for i := 0; i < 10; i++ {
		f := newFakeObj()
		objs = append(objs, f)
		o.Track(classes[i%len(classes)], &f.node)
	}
	n := o.ReleaseAll(true)
	if n != 10 {
		t.Fatalf("released %d, want 10", n)
	}
	for i, f := range objs {
		if !f.released || !f.killed {
			t.Fatalf("object %d not released with kill=true", i)
		}
	}
	for _, c := range classes {
		if o.TrackedCount(c) != 0 {
			t.Fatalf("class %v still has tracked objects", c)
		}
	}
}

func TestReleaseAllOrder(t *testing.T) {
	// Semaphores must release before threads, threads before pages.
	o := NewOwner("x", PathOwner)
	var order []TrackClass
	add := func(c TrackClass) {
		f := newFakeObj()
		f.onRel = func() { order = append(order, c) }
		o.Track(c, &f.node)
	}
	add(TrackPages)
	add(TrackThreads)
	add(TrackSemaphores)
	o.ReleaseAll(false)
	want := []TrackClass{TrackSemaphores, TrackThreads, TrackPages}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("release order %v, want %v", order, want)
		}
	}
}

func TestReleaseAllWithSelfRemovingObjects(t *testing.T) {
	// An object's release may untrack a sibling (e.g. a semaphore whose
	// destruction frees a dependent event). ReleaseAll must not double-
	// release or loop.
	o := NewOwner("x", PathOwner)
	a, b := newFakeObj(), newFakeObj()
	a.onRel = func() { o.Untrack(TrackEvents, &b.node) }
	o.Track(TrackEvents, &a.node)
	o.Track(TrackEvents, &b.node)
	n := o.ReleaseAll(true)
	if n != 1 {
		t.Fatalf("released %d, want 1 (sibling was untracked)", n)
	}
	if b.released {
		t.Fatal("untracked sibling was released anyway")
	}
}

func TestUntrackedNodePanicsWithoutTracked(t *testing.T) {
	o := NewOwner("x", PathOwner)
	defer func() {
		if recover() == nil {
			t.Fatal("tracking a non-Tracked value did not panic")
		}
	}()
	o.Track(TrackPages, &lib.Node{Value: "not tracked"})
}

// TestKmemConservation: arbitrary interleavings of charges and refunds
// never let the balance go negative, and balance equals charges minus
// refunds.
func TestKmemConservation(t *testing.T) {
	f := func(ops []int16) bool {
		o := NewOwner("x", PathOwner)
		var balance uint64
		for _, op := range ops {
			if op >= 0 {
				o.ChargeKmem(uint64(op))
				balance += uint64(op)
			} else {
				n := uint64(-op)
				if n > balance {
					n = balance
				}
				o.RefundKmem(n)
				balance -= n
			}
			if o.Counters.Kmem != balance {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerSnapshotDiff(t *testing.T) {
	var l Ledger
	a := NewOwner("a", PathOwner)
	b := NewOwner("b", DomainOwner)
	idle := NewOwner("Idle", IdleOwner)
	l.Register(a)
	l.Register(b)
	l.Register(idle)

	before := l.Snapshot(1000)
	a.ChargeCycles(300)
	b.ChargeCycles(100)
	idle.ChargeCycles(600)
	after := l.Snapshot(2000)

	d := after.Diff(before)
	if d.Measured != 1000 {
		t.Fatalf("measured = %d", d.Measured)
	}
	if d.Accounted() != 1000 {
		t.Fatalf("accounted = %d, want 1000", d.Accounted())
	}
	if d.Unaccounted() != 0 {
		t.Fatalf("unaccounted = %d, want 0", d.Unaccounted())
	}
	if d.ByOwner["a"] != 300 || d.ByOwner["b"] != 100 || d.ByOwner["Idle"] != 600 {
		t.Fatalf("byOwner = %v", d.ByOwner)
	}
	if d.Format() == "" {
		t.Fatal("Format returned empty")
	}
}

func TestLedgerSumsSameNamedOwners(t *testing.T) {
	// Successive connections reuse a path name; Table 1 aggregates them.
	var l Ledger
	for i := 0; i < 3; i++ {
		o := NewOwner("active", PathOwner)
		l.Register(o)
		o.ChargeCycles(10)
	}
	s := l.Snapshot(100)
	if s.Cycles["active"] != 30 {
		t.Fatalf("aggregated cycles = %d, want 30", s.Cycles["active"])
	}
}

func TestLedgerLiveSkipsDead(t *testing.T) {
	var l Ledger
	o1 := NewOwner("x", PathOwner)
	o2 := NewOwner("x", PathOwner)
	o3 := NewOwner("y", PathOwner)
	l.Register(o1)
	l.Register(o2)
	l.Register(o3)
	o1.MarkDead()
	if live := l.Live(); len(live) != 2 || !slices.Contains(live, o2) || !slices.Contains(live, o3) {
		t.Fatalf("Live() = %v, want x and y", live)
	}
	o3.MarkDead()
	o2.MarkDead()
	if n := len(l.Live()); n != 0 {
		t.Fatalf("Live() holds %d owners after every death", n)
	}
}

func TestOwnerStringAndTypeString(t *testing.T) {
	o := NewOwner("web", PathOwner)
	if o.String() != "web(path)" {
		t.Fatalf("String = %q", o.String())
	}
	for _, tt := range []OwnerType{PathOwner, DomainOwner, KernelOwner, IdleOwner, OwnerType(99)} {
		if tt.String() == "" {
			t.Fatal("empty type string")
		}
	}
	for c := TrackClass(0); c <= numTrackClasses; c++ {
		if c.String() == "" {
			t.Fatal("empty class string")
		}
	}
}

var _ = sim.Cycles(0)

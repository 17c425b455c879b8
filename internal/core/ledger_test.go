package core

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// A dead owner's cycles fold into its group's record, so a delta spanning
// an owner's death must still account them — including a final teardown
// charge landing after MarkDead.
func TestDiffAccountsDeadOwners(t *testing.T) {
	var l Ledger
	path := NewOwner("Path A", PathOwner)
	kern := NewOwner("Kernel", KernelOwner)
	l.Register(path)
	l.Register(kern)

	before := l.Snapshot(0)
	path.ChargeCycles(700)
	kern.ChargeCycles(200)
	path.MarkDead()
	path.ChargeCycles(100) // teardown tail, after death
	after := l.Snapshot(1000)

	d := after.Diff(before)
	if got := d.ByOwner["Path A"]; got != 800 {
		t.Errorf("dead owner charged %d cycles, want 800", got)
	}
	if got := d.Accounted(); got != 1000 {
		t.Errorf("Accounted() = %d, want 1000", got)
	}
	if got := d.Unaccounted(); got != 0 {
		t.Errorf("Unaccounted() = %d, want 0", got)
	}
}

// An owner registered between the snapshots appears only in the later
// one; Diff must treat its earlier count as zero, not skip it.
func TestDiffOwnerOnlyInLaterSnapshot(t *testing.T) {
	var l Ledger
	kern := NewOwner("Kernel", KernelOwner)
	l.Register(kern)

	before := l.Snapshot(0)
	mid := NewOwner("Path B", PathOwner)
	l.Register(mid)
	mid.ChargeCycles(300)
	kern.ChargeCycles(50)
	after := l.Snapshot(350)

	d := after.Diff(before)
	if got := d.ByOwner["Path B"]; got != 300 {
		t.Errorf("new owner charged %d cycles, want 300", got)
	}
	if got := d.Unaccounted(); got != 0 {
		t.Errorf("Unaccounted() = %d, want 0", got)
	}
}

// Owners with no new charges contribute nothing: ByOwner holds only
// owners that burned cycles in the window, and Unaccounted can go
// negative only through a clock bug (it is signed so such a bug shows).
func TestDiffIdleOwnersOmitted(t *testing.T) {
	var l Ledger
	idle := NewOwner("Idle", IdleOwner)
	busy := NewOwner("Busy", PathOwner)
	l.Register(idle)
	l.Register(busy)
	idle.ChargeCycles(400) // pre-window history

	before := l.Snapshot(400)
	busy.ChargeCycles(100)
	after := l.Snapshot(500)

	d := after.Diff(before)
	if _, ok := d.ByOwner["Idle"]; ok {
		t.Errorf("idle owner present in ByOwner: %v", d.ByOwner)
	}
	if got := d.Accounted(); got != 100 {
		t.Errorf("Accounted() = %d, want 100", got)
	}
}

// Same-named owners (a path name reused across connections) are summed
// into one snapshot entry, dead or alive.
func TestSnapshotSumsSameNamedOwners(t *testing.T) {
	var l Ledger
	c1 := NewOwner("conn", PathOwner)
	c2 := NewOwner("conn", PathOwner)
	l.Register(c1)
	l.Register(c2)
	c1.ChargeCycles(10)
	c1.MarkDead()
	c2.ChargeCycles(20)

	s := l.Snapshot(sim.Cycles(30))
	if got := s.Cycles["conn"]; got != 30 {
		t.Errorf("summed cycles = %d, want 30", got)
	}
	if live := l.Live(); len(live) != 1 || live[0] != c2 {
		t.Errorf("Live() = %v, want only the live instance", live)
	}
}

// CheckContainment reports an unbalanced window first, then the first
// dead owner still holding a counter or a tracked object; live owners
// may hold anything.
func TestCheckContainment(t *testing.T) {
	var l Ledger
	live := NewOwner("live", PathOwner)
	dead := NewOwner("dead", PathOwner)
	l.Register(live)
	l.Register(dead)
	live.ChargePages(2)
	before := l.Snapshot(0)
	dead.ChargeCycles(100)
	after := l.Snapshot(100)
	if err := l.CheckContainment(before, after); err != nil {
		t.Fatalf("balanced window, no dead owner: %v", err)
	}
	if err := l.CheckContainment(before, l.Snapshot(150)); err == nil ||
		!strings.Contains(err.Error(), "unaccounted = 50 of 150") {
		t.Fatalf("unbalanced window: got %v", err)
	}

	obj := newFakeObj()
	dead.Track(TrackEvents, &obj.node)
	dead.ChargeSemaphore()
	dead.MarkDead()
	if err := l.CheckContainment(before, after); err == nil ||
		!strings.Contains(err.Error(), `dead owner "dead" leaks:`) {
		t.Fatalf("dead owner with a semaphore: got %v", err)
	}
	dead.RefundSemaphore()
	if err := l.CheckContainment(before, after); err == nil ||
		!strings.Contains(err.Error(), `dead owner "dead" still tracks 1 events`) {
		t.Fatalf("dead owner with a tracked event: got %v", err)
	}
	dead.Untrack(TrackEvents, &obj.node)
	if err := l.CheckContainment(before, after); err != nil {
		t.Fatalf("emptied dead owner: %v", err)
	}
}

// Format always reports the measured total and the accounted percentage,
// even for an empty window (no division by zero).
func TestFormatEmptyDelta(t *testing.T) {
	d := Delta{Measured: 0, ByOwner: map[string]sim.Cycles{}}
	out := d.Format()
	if !strings.Contains(out, "Total Measured") || !strings.Contains(out, "Total Accounted") {
		t.Errorf("Format() missing totals:\n%s", out)
	}
}

// Owners tied on cycles straddle a listing's cut: Sorted breaks the tie
// by name, so the first rows are the same on every call even though
// ByOwner is a map.
func TestSortedTiesStraddlingCut(t *testing.T) {
	d := Delta{ByOwner: map[string]sim.Cycles{"big": 900, "mid": 500}}
	for _, name := range []string{"tie-e", "tie-a", "tie-d", "tie-b", "tie-c"} {
		d.ByOwner[name] = 100
	}
	want := []string{"big", "mid", "tie-a", "tie-b"} // a listing cut at 4 rows
	for i := 0; i < 50; i++ {
		rows := d.Sorted()
		if len(rows) != len(d.ByOwner) {
			t.Fatalf("Sorted() has %d rows, want %d", len(rows), len(d.ByOwner))
		}
		for j, w := range want {
			if rows[j].Name != w {
				t.Fatalf("Sorted()[:%d] = %v, want names %v", len(want), rows[:len(want)], want)
			}
		}
	}
}

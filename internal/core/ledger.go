package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Ledger is the registry of all owners in a running system. It exists so
// experiments can take before/after snapshots and produce the paper's
// Table 1 breakdown, and so the invariant "Total Accounted == Total
// Measured" can be checked: every cycle the engine advances is charged to
// exactly one owner, so summing the ledger must reproduce the clock.
type Ledger struct {
	owners []*Owner
}

// Register adds an owner to the ledger. Owners stay registered after death
// so their historical cycle charges remain visible.
func (l *Ledger) Register(o *Owner) {
	l.owners = append(l.owners, o)
}

// Owners returns all registered owners in registration order.
func (l *Ledger) Owners() []*Owner { return l.owners }

// Find returns the first live owner with the given name.
func (l *Ledger) Find(name string) *Owner {
	for _, o := range l.owners {
		if o.Name == name && !o.Dead() {
			return o
		}
	}
	return nil
}

// Snapshot captures per-owner cycle counts at an instant.
type Snapshot struct {
	At     sim.Cycles
	Cycles map[string]sim.Cycles // owner name -> cumulative cycles
}

// Snapshot captures the current cycle counters. Owners sharing a name (a
// path name reused across connections) are summed.
func (l *Ledger) Snapshot(now sim.Cycles) Snapshot {
	s := Snapshot{At: now, Cycles: make(map[string]sim.Cycles, len(l.owners))}
	for _, o := range l.owners {
		s.Cycles[o.Name] += o.Counters.Cycles
	}
	return s
}

// Delta is the difference between two snapshots: the Table 1 measurement.
type Delta struct {
	Measured sim.Cycles            // wall-clock cycles between the snapshots
	ByOwner  map[string]sim.Cycles // cycles charged per owner name
}

// Diff subtracts an earlier snapshot from a later one.
func (later Snapshot) Diff(earlier Snapshot) Delta {
	d := Delta{
		Measured: later.At - earlier.At,
		ByOwner:  make(map[string]sim.Cycles),
	}
	names := make([]string, 0, len(later.Cycles))
	for name := range later.Cycles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := later.Cycles[name]
		prev := earlier.Cycles[name]
		if c > prev {
			d.ByOwner[name] = c - prev
		}
	}
	return d
}

// Accounted sums all per-owner charges in the delta.
func (d Delta) Accounted() sim.Cycles {
	var total sim.Cycles
	for _, c := range d.ByOwner {
		total += c
	}
	return total
}

// Unaccounted returns Measured minus Accounted. Zero means the accounting
// mechanism captured 100% of the cycles, the paper's headline claim.
func (d Delta) Unaccounted() int64 {
	return int64(d.Measured) - int64(d.Accounted())
}

// CheckContainment asserts the two containment invariants a harness
// checks after a run: every cycle between the snapshots was charged to
// some owner (Unaccounted == 0), and no dead owner retains resources —
// its counters and every tracking list are empty, so pathKill gave
// everything back. It returns the first violation, nil when both hold.
func (l *Ledger) CheckContainment(before, after Snapshot) error {
	if d := after.Diff(before); d.Unaccounted() != 0 {
		return fmt.Errorf("unaccounted = %d of %d measured cycles",
			d.Unaccounted(), d.Measured)
	}
	for _, o := range l.owners {
		if !o.Dead() {
			continue
		}
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
	}
	return nil
}

// Format renders the delta in the style of Table 1: each owner's cycles
// and percentage of the measured total, sorted by descending share.
func (d Delta) Format() string {
	type row struct {
		name string
		c    sim.Cycles
	}
	rows := make([]row, 0, len(d.ByOwner))
	for name, c := range d.ByOwner {
		rows = append(rows, row{name, c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].c != rows[j].c {
			return rows[i].c > rows[j].c
		}
		return rows[i].name < rows[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14d\n", "Total Measured", d.Measured)
	for _, r := range rows {
		pct := 0.0
		if d.Measured > 0 {
			pct = 100 * float64(r.c) / float64(d.Measured)
		}
		fmt.Fprintf(&b, "%-28s %14d (%.0f%%)\n", r.name, r.c, pct)
	}
	fmt.Fprintf(&b, "%-28s %14d (%.0f%%)\n", "Total Accounted", d.Accounted(),
		100*float64(d.Accounted())/float64(maxCycles(d.Measured, 1)))
	return b.String()
}

func maxCycles(a, b sim.Cycles) sim.Cycles {
	if a > b {
		return a
	}
	return b
}

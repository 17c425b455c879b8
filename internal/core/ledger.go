package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Ledger is the registry of the live owners in a running system, plus one
// Group per metrics group holding the cumulative counters of the group's
// dead owners. It exists so experiments can take before/after snapshots
// and produce the paper's Table 1 breakdown, and so the invariant "Total
// Accounted == Total Measured" can be checked: every cycle the engine
// advances is charged to exactly one owner, so summing the ledger must
// reproduce the clock. Dead owners fold into their group when they die,
// so a snapshot or metrics sample costs O(live owners + groups), not
// O(owners ever registered).
type Ledger struct {
	live   []*Owner
	groups []*Group
	byKey  map[string]*Group // GroupKey(owner name) -> group

	// suspects are the owners that died still holding a counter or a
	// tracked object: the only dead owners CheckContainment re-checks.
	// An owner that dies empty stays empty, because charges and Track
	// panic on a dead owner.
	suspects []*Owner
}

// Group is one metrics group (see OwnerGroup) and its fold record: the
// cumulative counters of the group's dead owners. A dead owner's cycles
// keep counting here, and so do its later kmem and page refunds.
type Group struct {
	Name   string
	Cycles sim.Cycles
	Kmem   uint64
	Pages  uint64

	ledger *Ledger
}

const activePathPrefix = "Active Path "

// OwnerGroup collapses per-connection path owners into bounded metrics
// groups: "Active Path trusted:7000#42" becomes "Active Paths (trusted)"
// — the per-connection names are unique and would explode the metrics
// CSV. All other owner names are their own group. The tracer always uses
// full owner names.
func OwnerGroup(owner string) string {
	rest, ok := strings.CutPrefix(owner, activePathPrefix)
	if !ok {
		return owner
	}
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		rest = rest[:i]
	}
	return "Active Paths (" + rest + ")"
}

// GroupKey is the prefix of an owner name that decides its group: the
// name up to the trust class for an active path, else the whole name.
// It is a substring of the name, so looking a group up allocates nothing.
func GroupKey(owner string) string {
	if rest, ok := strings.CutPrefix(owner, activePathPrefix); ok {
		if i := strings.IndexByte(rest, ':'); i >= 0 {
			return owner[:len(activePathPrefix)+i]
		}
	}
	return owner
}

// Register adds a live owner to the ledger and resolves its group.
func (l *Ledger) Register(o *Owner) {
	o.checkLive("Register")
	key := GroupKey(o.Name)
	g := l.byKey[key]
	if g == nil {
		if l.byKey == nil {
			l.byKey = make(map[string]*Group)
		}
		g = &Group{Name: OwnerGroup(o.Name), ledger: l}
		l.byKey[key] = g
		l.groups = append(l.groups, g)
	}
	o.group = g
	o.slot = int32(len(l.live))
	l.live = append(l.live, o)
}

// Live returns the live owners, in no particular order. The returned
// slice is the ledger's own; don't mutate it.
func (l *Ledger) Live() []*Owner { return l.live }

// Groups returns every group an owner was ever registered under, in
// first-registration order. The returned slice is the ledger's own.
func (l *Ledger) Groups() []*Group { return l.groups }

// retire removes a dying owner from the live list and folds its counters
// into its group.
func (l *Ledger) retire(o *Owner) {
	last := len(l.live) - 1
	moved := l.live[last]
	l.live[o.slot] = moved
	moved.slot = o.slot
	l.live[last] = nil
	l.live = l.live[:last]

	g := o.group
	g.Cycles += o.Counters.Cycles
	g.Kmem += o.Counters.Kmem
	g.Pages += o.Counters.Pages
	if o.leak() != nil {
		l.suspects = append(l.suspects, o)
	}
}

// Snapshot captures per-group cycle counts at an instant.
type Snapshot struct {
	At     sim.Cycles
	Cycles map[string]sim.Cycles // group name -> cumulative cycles
}

// Snapshot captures the current cycle counters, keyed by group (see
// OwnerGroup) as the metrics sample is. An owner's group never changes,
// dead or alive, so a Diff across an owner's death stays exact.
func (l *Ledger) Snapshot(now sim.Cycles) Snapshot {
	s := Snapshot{At: now, Cycles: make(map[string]sim.Cycles, len(l.groups))}
	for _, g := range l.groups {
		s.Cycles[g.Name] += g.Cycles
	}
	for _, o := range l.live {
		s.Cycles[o.group.Name] += o.Counters.Cycles
	}
	return s
}

// Delta is the difference between two snapshots: the Table 1 measurement.
type Delta struct {
	Measured sim.Cycles            // wall-clock cycles between the snapshots
	ByOwner  map[string]sim.Cycles // cycles charged per owner group
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
// Only owners that died holding something can fail the second check, so
// it walks just those.
func (l *Ledger) CheckContainment(before, after Snapshot) error {
	if d := after.Diff(before); d.Unaccounted() != 0 {
		return fmt.Errorf("unaccounted = %d of %d measured cycles",
			d.Unaccounted(), d.Measured)
	}
	for _, o := range l.suspects {
		if err := o.leak(); err != nil {
			return err
		}
	}
	return nil
}

// OwnerCycles is one row of a delta: an owner group and its cycles.
type OwnerCycles struct {
	Name   string
	Cycles sim.Cycles
}

// Sorted returns the delta's rows by descending cycles, ties broken by
// name, so a listing cut at any row is the same on every run.
func (d Delta) Sorted() []OwnerCycles {
	rows := make([]OwnerCycles, 0, len(d.ByOwner))
	for name, c := range d.ByOwner {
		rows = append(rows, OwnerCycles{name, c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Cycles != rows[j].Cycles {
			return rows[i].Cycles > rows[j].Cycles
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// Format renders the delta in the style of Table 1: each owner's cycles
// and percentage of the measured total, sorted by descending share.
func (d Delta) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14d\n", "Total Measured", d.Measured)
	for _, r := range d.Sorted() {
		pct := 0.0
		if d.Measured > 0 {
			pct = 100 * float64(r.Cycles) / float64(d.Measured)
		}
		fmt.Fprintf(&b, "%-28s %14d (%.0f%%)\n", r.Name, r.Cycles, pct)
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

package obs

import "repro/internal/core"

// FaultRegistry counts injected-fault and robustness events per metrics
// group (or per NIC, for network-level faults that fire before a frame
// is attributable to an owner). It exists so chaos runs can answer "who
// absorbed the faults?" from the metrics export alone: when a registry
// is bound to a Metrics sampler, every sample carries a faults:<group>
// column next to the cycle/kmem/page series.
//
// Each owner name resolves to its group once, at Inc, through the
// ledger's own grouping (core.GroupKey, core.OwnerGroup), so a sample
// costs O(groups), not O(names ever counted). Groups are kept in
// first-seen order so iteration is deterministic; all methods are
// nil-safe so instrumented code can hold a nil registry when
// observability is disabled.
type FaultRegistry struct {
	groups []faultGroup
	byKey  map[string]int // core.GroupKey(owner) -> index into groups
}

type faultGroup struct {
	name  string
	count uint64
}

// NewFaultRegistry returns an empty registry.
func NewFaultRegistry() *FaultRegistry {
	return &FaultRegistry{byKey: make(map[string]int)}
}

// Inc records one fault attributed to owner. Nil-safe.
func (r *FaultRegistry) Inc(owner string) {
	if r == nil {
		return
	}
	key := core.GroupKey(owner)
	i, seen := r.byKey[key]
	if !seen {
		i = len(r.groups)
		r.byKey[key] = i
		r.groups = append(r.groups, faultGroup{name: core.OwnerGroup(owner)})
	}
	r.groups[i].count++
}

package obs

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestFaultSampleCostIndependentOfNames: fault counts resolve to their
// group when counted, so one metrics sample costs the same with 10 or
// 10^4 distinct faulted path names (every per-connection path name
// folds into one "Active Paths (trusted)" group).
func TestFaultSampleCostIndependentOfNames(t *testing.T) {
	allocs := func(names int) float64 {
		r := NewFaultRegistry()
		for i := 0; i < names; i++ {
			r.Inc(fmt.Sprintf("Active Path trusted:%d#%d", 7000+i%1000, i))
		}
		r.Inc("nic:server")
		m := &Metrics{ledger: &core.Ledger{}}
		m.BindFaults(r)
		return testing.AllocsPerRun(100, func() { m.sample(0) })
	}
	if few, many := allocs(10), allocs(10_000); few != many {
		t.Errorf("one sample allocates %v times with 10 faulted path names, %v with 10^4", few, many)
	}
	r := NewFaultRegistry()
	for _, name := range []string{"Active Path trusted:7000#1", "nic:server", "Active Path trusted:7001#2", "Active Path untrusted:80#3"} {
		r.Inc(name)
	}
	m := &Metrics{ledger: &core.Ledger{}}
	m.BindFaults(r)
	m.sample(0)
	want := map[string]uint64{"Active Paths (trusted)": 2, "nic:server": 1, "Active Paths (untrusted)": 1}
	if got := m.samples[0].Faults; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("sample faults = %v, want %v", got, want)
	}
}

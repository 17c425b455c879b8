package obs_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ownerList is a fixed ledger view for driving a sampler directly.
type ownerList []*core.Owner

func (l ownerList) Owners() []*core.Owner { return l }

// TestSubscribeOrder pins the subscriber contract policies and the
// scenario harness build on: every subscriber sees every sample, in
// registration order, so a later subscriber observes an earlier one's
// reaction on the same tick. A subscriber registered mid-run joins at
// the end of the order from the next sample on.
func TestSubscribeOrder(t *testing.T) {
	const tick = obs.DefaultMetricsInterval
	m := obs.NewSampler()
	m.Bind(ownerList{core.NewOwner("kernel", core.DomainOwner)})
	var got []string
	sub := func(name string) func(obs.Sample) {
		return func(s obs.Sample) { got = append(got, fmt.Sprintf("%s@%d", name, s.At)) }
	}
	m.Subscribe(sub("a"))
	m.Subscribe(sub("b"))
	m.Poll(0)
	m.Poll(tick / 2) // between ticks: no sample
	m.Poll(tick)
	m.Subscribe(sub("c"))
	m.Poll(2 * tick)
	m.Final(5 * tick / 2)

	at := func(name string, c sim.Cycles) string { return fmt.Sprintf("%s@%d", name, c) }
	want := []string{
		at("a", 0), at("b", 0),
		at("a", tick), at("b", tick),
		at("a", 2*tick), at("b", 2*tick), at("c", 2*tick),
		at("a", 5*tick/2), at("b", 5*tick/2), at("c", 5*tick/2),
	}
	if !slices.Equal(got, want) {
		t.Fatalf("subscriber calls = %v, want %v", got, want)
	}
	if m.Len() != 4 {
		t.Fatalf("samples = %d, want 4", m.Len())
	}
}

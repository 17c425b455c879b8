package obs_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
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
	m := obs.NewSampler(10, nil)
	m.Bind(ownerList{core.NewOwner("kernel", core.DomainOwner)})
	var got []string
	sub := func(name string) func(obs.Sample) {
		return func(s obs.Sample) { got = append(got, fmt.Sprintf("%s@%d", name, s.At)) }
	}
	m.Subscribe(sub("a"))
	m.Subscribe(sub("b"))
	m.Poll(0)
	m.Poll(5) // between ticks: no sample
	m.Poll(10)
	m.Subscribe(sub("c"))
	m.Poll(20)
	m.Final(25)

	want := []string{
		"a@0", "b@0",
		"a@10", "b@10",
		"a@20", "b@20", "c@20",
		"a@25", "b@25", "c@25",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("subscriber calls = %v, want %v", got, want)
	}
	if m.Len() != 4 {
		t.Fatalf("samples = %d, want 4", m.Len())
	}
}

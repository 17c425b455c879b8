package obs_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestSubscribeOrder pins the subscriber contract policies and the
// scenario harness build on: every subscriber sees every sample, in
// registration order, so a later subscriber observes an earlier one's
// reaction on the same tick. A subscriber registered mid-run joins at
// the end of the order from the next sample on.
func TestSubscribeOrder(t *testing.T) {
	const tick = obs.DefaultMetricsInterval
	m := obs.NewSampler()
	var l core.Ledger
	l.Register(core.NewOwner("kernel", core.DomainOwner))
	m.Bind(&l)
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
	if n := len(m.Samples()); n != 4 {
		t.Fatalf("samples = %d, want 4", n)
	}
}

// lastSample takes a sample at now and returns it.
func lastSample(m *obs.Metrics, now sim.Cycles) obs.Sample {
	m.Final(now)
	return m.Samples()[len(m.Samples())-1]
}

// TestDeadOwnerPageRefundFolds: a page refund that lands on an owner
// after it died (an IOBuffer hold released late) lowers its group's
// pages total, the pages:<group> column of the metrics CSV.
func TestDeadOwnerPageRefundFolds(t *testing.T) {
	var l core.Ledger
	const group = "Active Paths (trusted)"
	a := core.NewOwner("Active Path trusted:7000#1", core.PathOwner)
	b := core.NewOwner("Active Path trusted:7001#2", core.PathOwner)
	l.Register(a)
	l.Register(b)
	a.ChargePages(3)
	b.ChargePages(2)
	m := obs.NewSampler()
	m.Bind(&l)
	if got := lastSample(m, 1).Pages[group]; got != 5 {
		t.Fatalf("pages before the death = %d, want 5", got)
	}
	a.MarkDead()
	if got := lastSample(m, 2).Pages[group]; got != 5 {
		t.Fatalf("pages after the death = %d, want 5", got)
	}
	a.RefundPages(2)
	if got := lastSample(m, 3).Pages[group]; got != 3 {
		t.Fatalf("pages after a refund on the dead owner = %d, want 3", got)
	}
}

// deadLedger returns a ledger holding 64 live path owners and dead
// path owners spread over the same groups.
func deadLedger(dead int) *core.Ledger {
	l := new(core.Ledger)
	l.Register(core.NewOwner("Idle", core.IdleOwner))
	classes := []string{"trusted", "untrusted"}
	for i := 0; i < dead+64; i++ {
		o := core.NewOwner(fmt.Sprintf("Active Path %s:%d#%d", classes[i%2], 7000+i%100, i), core.PathOwner)
		l.Register(o)
		o.ChargeCycles(sim.Cycles(i + 1))
		if i < dead {
			o.MarkDead()
		}
	}
	return l
}

// TestSampleCostIndependentOfDeadOwners pins that one metrics sample and
// one Snapshot cost O(live owners + groups): a ledger that has seen
// 10^5 owners die allocates exactly as much per sample and per Snapshot
// as one that has seen 10 die, and lists only its live owners.
func TestSampleCostIndependentOfDeadOwners(t *testing.T) {
	var allocs [2][2]float64
	for i, dead := range []int{10, 100_000} {
		l := deadLedger(dead)
		if n := len(l.Live()); n != 65 {
			t.Fatalf("%d dead: len(Live()) = %d, want 65", dead, n)
		}
		m := obs.NewSampler()
		m.Bind(l)
		now := sim.Cycles(0)
		allocs[i][0] = testing.AllocsPerRun(100, func() {
			now++
			m.Final(now)
		})
		allocs[i][1] = testing.AllocsPerRun(100, func() { l.Snapshot(now) })
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("allocs per (sample, Snapshot): 10 dead %v, 10^5 dead %v", allocs[0], allocs[1])
	}
}

// BenchmarkMetricsSample times one metrics sample over a ledger that has
// seen 10^5 owners die and holds 64 live ones.
func BenchmarkMetricsSample(b *testing.B) {
	l := deadLedger(100_000)
	var m *obs.Metrics
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			// A fresh sampler every 1024 samples keeps the recorded
			// series from growing with b.N.
			b.StopTimer()
			m = obs.NewSampler()
			m.Bind(l)
			b.StartTimer()
		}
		m.Final(sim.Cycles(i + 1))
	}
}

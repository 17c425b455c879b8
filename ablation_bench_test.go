// Ablation benchmarks for the design choices DESIGN.md calls out: how
// much of the protection-domain slowdown is the TLB invalidation versus
// the crossing itself, what the accounting tax buys, what the block
// cache is worth, and whether the QoS guarantee really depends on the
// proportional-share scheduler.
package main

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/experiment"
	"repro/internal/sim"
)

func ablationRate(b *testing.B, cfg experiment.Config, opt experiment.Options, doc experiment.DocSpec) float64 {
	b.Helper()
	return measure(b, benchScale().Window, opt, experiment.Load{Config: cfg, Doc: doc, Clients: 16}).ConnPS
}

// BenchmarkAblationTLBInvalidation isolates the OSF/1 PAL-code bug's
// contribution: the paper expects specialized PAL code to cut the
// per-domain overhead by more than a factor of two. Zeroing the TLB
// penalty (keeping the crossing trap) shows the headroom.
func BenchmarkAblationTLBInvalidation(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = ablationRate(b, experiment.ConfigAccountingPD, experiment.Options{}, experiment.Doc1B)
		m := cost.Default()
		m.TLBMissPenalty = 0
		without = ablationRate(b, experiment.ConfigAccountingPD,
			experiment.Options{Model: m}, experiment.Doc1B)
	}
	b.ReportMetric(with, "with-tlb-conn/s")
	b.ReportMetric(without, "no-tlb-conn/s")
	b.ReportMetric(100*(without-with)/with, "tlb-headroom-%")
}

// BenchmarkAblationCrossingCost halves the crossing trap cost — the
// paper's planned PAL optimizations (syscalls in PAL code, simpler page
// table) — to see how far the worst-case configuration recovers.
func BenchmarkAblationCrossingCost(b *testing.B) {
	var base, cheap float64
	for i := 0; i < b.N; i++ {
		base = ablationRate(b, experiment.ConfigAccountingPD, experiment.Options{}, experiment.Doc1B)
		m := cost.Default()
		m.CrossDomainCall /= 2
		m.TLBMissPenalty /= 2
		cheap = ablationRate(b, experiment.ConfigAccountingPD,
			experiment.Options{Model: m}, experiment.Doc1B)
	}
	b.ReportMetric(base, "base-conn/s")
	b.ReportMetric(cheap, "half-cost-conn/s")
	b.ReportMetric(cheap/base, "speedup-x")
}

// BenchmarkAblationAccountingTax sweeps the per-operation bookkeeping
// cost: the knob behind the paper's 8% overhead claim.
func BenchmarkAblationAccountingTax(b *testing.B) {
	var free, paid float64
	for i := 0; i < b.N; i++ {
		m := cost.Default()
		m.AccountingOp = 0
		free = ablationRate(b, experiment.ConfigAccounting,
			experiment.Options{Model: m}, experiment.Doc1B)
		paid = ablationRate(b, experiment.ConfigAccounting, experiment.Options{}, experiment.Doc1B)
	}
	b.ReportMetric(free, "zero-tax-conn/s")
	b.ReportMetric(paid, "default-tax-conn/s")
	b.ReportMetric(100*(free-paid)/free, "tax-%")
}

// BenchmarkAblationBlockCache compares a warm block cache against a
// disk-bound server (cache budget too small to hold the document):
// every request pays the 8 ms seek.
func BenchmarkAblationBlockCache(b *testing.B) {
	var cached, uncached float64
	for i := 0; i < b.N; i++ {
		cached = ablationRate(b, experiment.ConfigAccounting, experiment.Options{}, experiment.Doc10K)
		uncached = ablationRate(b, experiment.ConfigAccounting,
			experiment.Options{FSCacheBudget: 1}, experiment.Doc10K)
	}
	b.ReportMetric(cached, "cached-conn/s")
	b.ReportMetric(uncached, "diskbound-conn/s")
}

// BenchmarkAblationScheduler runs the QoS stream under the priority
// scheduler instead of proportional-share: without an enforced share
// the stream must compete as an ordinary owner.
func BenchmarkAblationScheduler(b *testing.B) {
	rateFrac := func(schedName string) float64 {
		r := measure(b, 2*sim.CyclesPerSecond,
			experiment.Options{QoSRateBps: experiment.QoSTarget, Scheduler: schedName},
			experiment.Load{Config: experiment.ConfigAccounting, Doc: experiment.Doc1B, Clients: 32, Stream: true})
		return r.QoSRate / experiment.QoSTarget
	}
	var stride, prio float64
	for i := 0; i < b.N; i++ {
		stride = rateFrac("proportional-share")
		prio = rateFrac("priority")
	}
	b.ReportMetric(stride, "stride-rate-frac")
	b.ReportMetric(prio, "priority-rate-frac")
}

// BenchmarkAblationPathFinder compares module-chain demultiplexing with
// the PATHFINDER-style pattern classifier under a SYN flood — the
// paper's suggested alternative with "more liberal trust assumptions"
// is also cheaper per datagram.
func BenchmarkAblationPathFinder(b *testing.B) {
	rate := func(pf bool) float64 {
		return measure(b, benchScale().Window, experiment.Options{SynCapUntrusted: 64, PathFinder: pf},
			experiment.Load{Config: experiment.ConfigAccounting, Doc: experiment.Doc1B, Clients: 16, SynRate: 2000}).ConnPS
	}
	var chain, pattern float64
	for i := 0; i < b.N; i++ {
		chain = rate(false)
		pattern = rate(true)
	}
	b.ReportMetric(chain, "module-chain-conn/s")
	b.ReportMetric(pattern, "pathfinder-conn/s")
}

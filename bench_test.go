// Benchmarks regenerating every table and figure of the paper's
// evaluation at reduced scale (go test -bench=.). Each benchmark runs
// whole simulated experiments per iteration and reports the headline
// metric of its table/figure as a custom unit, so the *shape* of the
// paper's results — who wins, by roughly what factor — is visible
// straight from the bench output. cmd/escort-bench runs the paper-scale
// versions.
package main

import (
	"testing"

	"repro/internal/experiment"
	"repro/internal/experiment/runner"
	"repro/internal/sim"
)

func benchScale() experiment.Scale {
	return experiment.Scale{
		Warm:    sim.CyclesPerSecond / 2,
		Window:  sim.CyclesPerSecond,
		Clients: []int{16},
		CGICnts: []int{10},
	}
}

// measure runs one figure point after benchScale's warm-up.
func measure(b *testing.B, window sim.Cycles, opt experiment.Options, l experiment.Load) experiment.Row {
	b.Helper()
	r, _, err := experiment.Measure(experiment.Run{Load: l, Options: opt, Warm: benchScale().Warm, Window: window})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// benchRate measures clients alone and reports conn/s.
func benchRate(b *testing.B, cfg experiment.Config, doc experiment.DocSpec, clients int) {
	b.Helper()
	var r experiment.Row
	for i := 0; i < b.N; i++ {
		r = measure(b, benchScale().Window, experiment.Options{},
			experiment.Load{Config: cfg, Doc: doc, Clients: clients})
	}
	b.ReportMetric(r.ConnPS, "conn/s")
}

// Figure 8: one benchmark per configuration and document size.

func BenchmarkFig8Scout1B(b *testing.B) {
	benchRate(b, experiment.ConfigScout, experiment.Doc1B, 16)
}

func BenchmarkFig8Accounting1B(b *testing.B) {
	benchRate(b, experiment.ConfigAccounting, experiment.Doc1B, 16)
}

func BenchmarkFig8AccountingPD1B(b *testing.B) {
	benchRate(b, experiment.ConfigAccountingPD, experiment.Doc1B, 16)
}

func BenchmarkFig8Linux1B(b *testing.B) {
	benchRate(b, experiment.ConfigLinux, experiment.Doc1B, 16)
}

func BenchmarkFig8Scout1K(b *testing.B) {
	benchRate(b, experiment.ConfigScout, experiment.Doc1K, 16)
}

func BenchmarkFig8Accounting1K(b *testing.B) {
	benchRate(b, experiment.ConfigAccounting, experiment.Doc1K, 16)
}

func BenchmarkFig8AccountingPD1K(b *testing.B) {
	benchRate(b, experiment.ConfigAccountingPD, experiment.Doc1K, 16)
}

func BenchmarkFig8Linux1K(b *testing.B) {
	benchRate(b, experiment.ConfigLinux, experiment.Doc1K, 16)
}

func BenchmarkFig8Scout10K(b *testing.B) {
	benchRate(b, experiment.ConfigScout, experiment.Doc10K, 16)
}

func BenchmarkFig8Accounting10K(b *testing.B) {
	benchRate(b, experiment.ConfigAccounting, experiment.Doc10K, 16)
}

func BenchmarkFig8AccountingPD10K(b *testing.B) {
	benchRate(b, experiment.ConfigAccountingPD, experiment.Doc10K, 16)
}

func BenchmarkFig8Linux10K(b *testing.B) {
	benchRate(b, experiment.ConfigLinux, experiment.Doc10K, 16)
}

// Full Figure 8 sweep over all four configurations, serial vs fanned
// across one worker per CPU. The pair measures the runner's wall-clock
// win directly: conn/s (and every other output) must match between the
// two, while sims/sec — whole host simulations completed per wall-clock
// second — scales with cores.

func benchFig8Sweep(b *testing.B, workers int) {
	b.Helper()
	sc := benchScale()
	sc.Workers = workers
	docs := []experiment.DocSpec{experiment.Doc1B}
	var rate float64
	sims := 0
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Fig8(sc, docs, experiment.AllConfigs)
		if err != nil {
			b.Fatal(err)
		}
		rate = rows[len(rows)-1].ConnPS
		sims += len(rows)
	}
	b.ReportMetric(rate, "conn/s")
	b.ReportMetric(float64(sims)/b.Elapsed().Seconds(), "sims/sec")
}

func BenchmarkFig8SweepSerial1B(b *testing.B) {
	benchFig8Sweep(b, 1)
}

func BenchmarkFig8SweepParallel1B(b *testing.B) {
	benchFig8Sweep(b, runner.DefaultWorkers())
}

// Table 1: accounting accuracy — reports cycles/request and the
// accounted fraction (must be 1.0).

func benchTable1(b *testing.B, cfg experiment.Config) {
	b.Helper()
	var perReq, accounted float64
	for i := 0; i < b.N; i++ {
		tab, err := experiment.RunTable1(cfg, 25)
		if err != nil {
			b.Fatal(err)
		}
		perReq = float64(tab.TotalMeasured)
		accounted = float64(tab.Accounted) / float64(tab.TotalMeasured)
	}
	b.ReportMetric(perReq, "cycles/req")
	b.ReportMetric(accounted, "accounted-frac")
}

func BenchmarkTable1Accounting(b *testing.B) {
	benchTable1(b, experiment.ConfigAccounting)
}

func BenchmarkTable1AccountingPD(b *testing.B) {
	benchTable1(b, experiment.ConfigAccountingPD)
}

// Table 2: pathKill cost per configuration.

func BenchmarkTable2Kill(b *testing.B) {
	var acct, pd, linux float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunTable2()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Config {
			case experiment.ConfigAccounting:
				acct = float64(r.Cycles)
			case experiment.ConfigAccountingPD:
				pd = float64(r.Cycles)
			case experiment.ConfigLinux:
				linux = float64(r.Cycles)
			}
		}
	}
	b.ReportMetric(acct, "acct-cycles")
	b.ReportMetric(pd, "pd-cycles")
	b.ReportMetric(linux, "linux-cycles")
}

// Figure 9: SYN-attack slowdown.

func benchFig9(b *testing.B, cfg experiment.Config) {
	b.Helper()
	var slow float64
	opt := experiment.Options{SynCapUntrusted: 64}
	for i := 0; i < b.N; i++ {
		pt := experiment.Load{Config: cfg, Doc: experiment.Doc1B, Clients: 16}
		base := measure(b, benchScale().Window, opt, pt)
		pt.SynRate = 1000
		loaded := measure(b, benchScale().Window, opt, pt)
		slow = 100 * (base.ConnPS - loaded.ConnPS) / base.ConnPS
	}
	b.ReportMetric(slow, "slowdown-%")
}

func BenchmarkFig9SynAttackAccounting(b *testing.B) {
	benchFig9(b, experiment.ConfigAccounting)
}

func BenchmarkFig9SynAttackAccountingPD(b *testing.B) {
	benchFig9(b, experiment.ConfigAccountingPD)
}

// Figure 10: QoS stream fidelity and best-effort cost.

func benchFig10(b *testing.B, cfg experiment.Config) {
	b.Helper()
	var qosErr, slow float64
	opt := experiment.Options{QoSRateBps: experiment.QoSTarget}
	for i := 0; i < b.N; i++ {
		pt := experiment.Load{Config: cfg, Doc: experiment.Doc1B, Clients: 16}
		base := measure(b, 2*sim.CyclesPerSecond, opt, pt)
		pt.Stream = true
		loaded := measure(b, 2*sim.CyclesPerSecond, opt, pt)
		slow = 100 * (base.ConnPS - loaded.ConnPS) / base.ConnPS
		qosErr = 100 * (loaded.QoSRate - experiment.QoSTarget) / experiment.QoSTarget
		if qosErr < 0 {
			qosErr = -qosErr
		}
	}
	b.ReportMetric(slow, "best-effort-slowdown-%")
	b.ReportMetric(qosErr, "qos-err-%")
}

func BenchmarkFig10QoSAccounting(b *testing.B) {
	benchFig10(b, experiment.ConfigAccounting)
}

func BenchmarkFig10QoSAccountingPD(b *testing.B) {
	benchFig10(b, experiment.ConfigAccountingPD)
}

// Figure 11: CGI attack degradation with containment.

func benchFig11(b *testing.B, cfg experiment.Config) {
	b.Helper()
	var slow, kills float64
	opt := experiment.Options{QoSRateBps: experiment.QoSTarget}
	for i := 0; i < b.N; i++ {
		pt := experiment.Load{Config: cfg, Doc: experiment.Doc1B, Clients: 16, Stream: true}
		base := measure(b, 3*sim.CyclesPerSecond, opt, pt)
		pt.CGI = 10
		loaded := measure(b, 3*sim.CyclesPerSecond, opt, pt)
		slow = 100 * (base.ConnPS - loaded.ConnPS) / base.ConnPS
		kills = float64(loaded.Kills)
	}
	b.ReportMetric(slow, "slowdown-%")
	b.ReportMetric(kills, "kills")
}

func BenchmarkFig11CGIAccounting(b *testing.B) {
	benchFig11(b, experiment.ConfigAccounting)
}

func BenchmarkFig11CGIAccountingPD(b *testing.B) {
	benchFig11(b, experiment.ConfigAccountingPD)
}

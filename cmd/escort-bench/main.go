// Command escort-bench regenerates the tables and figures of the
// paper's evaluation (§4). Each experiment builds the Figure 7 testbed
// in a deterministic simulation and prints the same rows/series the
// paper reports.
//
// Usage:
//
//	escort-bench -exp fig8|table1|table2|fig9|fig10|fig11|all [-scale quick|paper]
//	             [-trace base.json] [-metrics base.csv] [-faults spec]
//	escort-bench -scenario slowloris|portscan|bruteforce|ackfinflood|memthrash|all
//	             [-report SCENARIOS.json]
//
// -faults applies a deterministic fault spec (see ROBUSTNESS.md for the
// grammar) to every figure run: network faults on both segments, the
// named failpoints in the kernel, and the defense knobs (watchdog,
// shedding, session reaper, puzzle gate, adaptive detector) in the
// server. Table runs stay fault-free.
//
// -scenario runs one attack scenario (or the whole library) from
// internal/scenario instead of the figure sweeps, under BOTH defense
// policies side by side — the scenario's static thresholds, then the
// adaptive anomaly detector armed on top of them: a fault-armed
// baseline, the attacked run, containment assertions, and a JSON
// report per policy with the three detection-quality metrics
// (time-to-detect, false-kill rate, goodput retained). The adaptive
// run must detect no later than the static one and must kill no
// legitimate client. -report additionally writes all reports as one
// {"scenarios":[...]} document — the committed SCENARIOS.json baseline
// that TestScenariosBaseline (internal/scenario) gates detection
// quality against. See ROBUSTNESS.md "Scenario catalog" and
// EXPERIMENTS.md for a worked example.
//
// Figure sweeps fan their points across one worker per CPU; every
// point is an independent simulation, so the output is byte-identical
// to a serial run (TestParallelSweepDeterminism).
//
// -trace and -metrics enable per-run observability on the figure
// sweeps: each testbed run writes its own file, derived from the base
// path by inserting the run label — e.g. -metrics out.csv produces
// out-fig8-doc1-Accounting-c8.csv. Table runs are never observed
// (their measurement is the ledger itself). Expect one file per sweep
// point; the quick scale keeps the count manageable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/experiment/runner"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// sinkFor derives the per-run filename <base>-<label><ext> and opens
// it. The file is closed by the testbed's Observer on Close.
func sinkFor(base, label string) *os.File {
	ext := filepath.Ext(base)
	name := base[:len(base)-len(ext)] + "-" + label + ext
	f, err := os.Create(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "escort-bench: %v\n", err)
		os.Exit(1)
	}
	return f
}

// experiments are the -exp names, in the order "all" runs them.
var experiments = []string{"fig8", "table1", "table2", "fig9", "fig10", "fig11"}

// knownExp reports whether -exp names an experiment or "all".
func knownExp(name string) bool {
	return name == "all" || slices.Contains(experiments, name)
}

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments, ", ")+", all")
	scaleName := flag.String("scale", "paper", "sweep scale: quick or paper")
	traceBase := flag.String("trace", "", "write per-run Chrome trace JSON files derived from this base path")
	metricsBase := flag.String("metrics", "", "write per-run metrics CSV files derived from this base path")
	faultSpec := flag.String("faults", "", "fault spec applied to figure runs, e.g. 'seed=7,drop=0.01,fp:kmem.alloc=p0.001,watchdog' (see ROBUSTNESS.md)")
	scen := flag.String("scenario", "", "run one attack scenario from the library (or 'all') and print its detection-quality report")
	report := flag.String("report", "", "with -scenario: also write the reports as one JSON document (the SCENARIOS.json baseline format)")
	flag.Parse()

	if *scen != "" {
		runScenarios(*scen, *report)
		return
	}

	if !knownExp(*exp) {
		fmt.Fprintf(os.Stderr, "escort-bench: unknown experiment %q (have: %s, all)\n",
			*exp, strings.Join(experiments, ", "))
		os.Exit(2)
	}
	var sc experiment.Scale
	switch *scaleName {
	case "paper":
		sc = experiment.PaperScale()
	case "quick":
		sc = experiment.QuickScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	sc.Workers = runner.DefaultWorkers()
	if *faultSpec != "" {
		spec, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "escort-bench: %v\n", err)
			os.Exit(2)
		}
		sc.Faults = spec
	}

	if *traceBase != "" || *metricsBase != "" {
		sc.Obs = func(label string) *obs.Config {
			cfg := &obs.Config{}
			if *traceBase != "" {
				cfg.TraceJSON = sinkFor(*traceBase, label)
			}
			if *metricsBase != "" {
				cfg.MetricsCSV = sinkFor(*metricsBase, label)
			}
			return cfg
		}
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %.1fs wall time)\n\n", name, time.Since(start).Seconds())
	}

	allDocs := []experiment.DocSpec{experiment.Doc1B, experiment.Doc1K, experiment.Doc10K}
	fig9Docs := []experiment.DocSpec{experiment.Doc1B, experiment.Doc10K}

	run("fig8", func() error {
		rows, err := experiment.Fig8(sc, allDocs, experiment.AllConfigs)
		if err != nil {
			return err
		}
		fmt.Print(experiment.FormatFig8(rows))
		return nil
	})

	run("table1", func() error {
		for _, cfg := range []experiment.Config{experiment.ConfigAccounting, experiment.ConfigAccountingPD} {
			tab, err := experiment.RunTable1(cfg, 100)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		}
		return nil
	})

	run("table2", func() error {
		rows, err := experiment.RunTable2()
		if err != nil {
			return err
		}
		fmt.Print(experiment.FormatTable2(rows))
		return nil
	})

	run("fig9", func() error {
		rows, err := experiment.Fig9(sc, fig9Docs)
		if err != nil {
			return err
		}
		fmt.Print(experiment.FormatFig9(rows))
		return nil
	})

	run("fig10", func() error {
		rows, err := experiment.Fig10(sc, fig9Docs)
		if err != nil {
			return err
		}
		fmt.Print(experiment.FormatFig10(rows))
		return nil
	})

	run("fig11", func() error {
		clients := 64
		if *scaleName == "quick" {
			clients = 16
		}
		rows, err := experiment.Fig11(sc, fig9Docs, clients)
		if err != nil {
			return err
		}
		fmt.Print(experiment.FormatFig11(rows, clients))
		return nil
	})
}

// runScenarios executes the named attack scenario (or the whole
// library) under both defense policies and prints the static and
// adaptive reports side by side. A failed containment assertion, a
// missed detection, or an adaptive regression (later detection, any
// false kill) exits non-zero. With a report path, all reports are
// also written as one {"scenarios":[...]} document.
func runScenarios(name, reportPath string) {
	list := scenario.All
	if name != "all" {
		s, ok := scenario.Lookup(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "escort-bench: unknown scenario %q (have: %s, all)\n",
				name, strings.Join(scenario.Names(), ", "))
			os.Exit(2)
		}
		list = []*scenario.Scenario{s}
	}
	var reports []*scenario.Result
	for _, s := range list {
		start := time.Now()
		fmt.Printf("==== scenario %s ====\n%s\n", s.Name, s.Desc)
		static, adaptive, err := scenario.Compare(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "escort-bench: %v\n", err)
			os.Exit(1)
		}
		for _, res := range []*scenario.Result{static, adaptive} {
			out, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "escort-bench: %v\n", err)
				os.Exit(1)
			}
			os.Stdout.Write(append(out, '\n'))
			reports = append(reports, res)
		}
		fmt.Printf("static ttd %.0fms -> adaptive ttd %.0fms; goodput %.2f -> %.2f\n",
			static.TimeToDetectMs, adaptive.TimeToDetectMs,
			static.GoodputRetained, adaptive.GoodputRetained)
		fmt.Printf("(%s completed in %.1fs wall time)\n\n", s.Name, time.Since(start).Seconds())
	}
	if reportPath != "" {
		doc := struct {
			Scenarios []*scenario.Result `json:"scenarios"`
		}{reports}
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "escort-bench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(reportPath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "escort-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d scenario reports to %s\n", len(reports), reportPath)
	}
}

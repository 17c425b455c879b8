// Command escort-bench regenerates the tables and figures of the
// paper's evaluation (§4). Each experiment builds the Figure 7 testbed
// in a deterministic simulation and prints the same rows/series the
// paper reports.
//
// Usage:
//
//	escort-bench -exp fig8|table1|table2|fig9|fig10|fig11|all [-scale quick|paper]
//	             [-trace base.json] [-metrics base.csv] [-faults spec]
//	escort-bench -run spec [-trace out.json] [-metrics out.csv]
//	escort-bench -scenario slowloris|portscan|bruteforce|ackfinflood|memthrash|all
//	             [-report SCENARIOS.json]
//
// -run measures one point, the same way the figures measure theirs.
// The spec is comma-separated entries:
//
//	config=NAME      Scout, Accounting, Accounting_PD or Linux (required)
//	doc=PATH         /doc1, /doc1k or /doc10k (required)
//	clients=N        best-effort clients on the trusted switch
//	syn=RATE         untrusted SYN flood, SYNs/second
//	syncap=N         untrusted listener's SYN cap (Figure 9: 64)
//	qos=BPS          QoS stream service rate (Figures 10-11: 1048576)
//	stream           attach the QoS stream receiver
//	cgi=N            CGI attackers, one 2 ms runaway per second each
//	pathfinder       pattern-based demultiplexing
//	penaltybox       demote repeat offenders to a penalty path
//	warm=DUR         warm-up before the window (default 3s)
//	window=DUR       measurement window (default 10s)
//
// plus any -faults entry (seed=, drop=, fp:NAME=, watchdog, detector,
// ...). Durations take us/ms/s suffixes; a bare number is cycles. An
// entry the config cannot arm is an error naming it: config=Scout keeps
// no accounting for penaltybox, watchdog, reaper or detector, and
// config=Linux reads no syncap=, qos=, pathfinder, penaltybox, defense
// or fp: entry (network faults and seed= apply to every config). It
// prints the canonical spec first (a reproducer: -run with it gives the
// same output), then the window's conn/s, SYN drops, QoS rate and
// kills, then the window's ledger, one row per owner group. -trace and
// -metrics write to the given paths. -run excludes -exp, -scale,
// -faults, -scenario and -report.
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

// fail reports err and exits with code: 2 for a usage error, 1 for a
// failed run.
func fail(code int, err error) {
	fmt.Fprintf(os.Stderr, "escort-bench: %v\n", err)
	os.Exit(code)
}

// sinkFor derives the per-run filename <base>-<label><ext> and opens
// it.
func sinkFor(base, label string) *os.File {
	ext := filepath.Ext(base)
	return create(base[:len(base)-len(ext)] + "-" + label + ext)
}

// create opens an observability sink, exiting on error. The file is
// closed by the testbed's Observer on Close.
func create(name string) *os.File {
	f, err := os.Create(name)
	if err != nil {
		fail(1, err)
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
	traceBase := flag.String("trace", "", "write Chrome trace JSON: per-run files derived from this base path, or this file with -run")
	metricsBase := flag.String("metrics", "", "write metrics CSV: per-run files derived from this base path, or this file with -run")
	faultSpec := flag.String("faults", "", "fault spec applied to figure runs, e.g. 'seed=7,drop=0.01,fp:kmem.alloc=p0.001,watchdog' (see ROBUSTNESS.md)")
	scen := flag.String("scenario", "", "run one attack scenario from the library (or 'all') and print its detection-quality report")
	report := flag.String("report", "", "with -scenario: also write the reports as one JSON document (the SCENARIOS.json baseline format)")
	runSpec := flag.String("run", "", "measure one point given as a run spec, e.g. 'config=Accounting,doc=/doc1,clients=64,syn=1000,syncap=64' (grammar above)")
	flag.Parse()

	if *runSpec != "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "run" && f.Name != "trace" && f.Name != "metrics" {
				fail(2, fmt.Errorf("-run cannot be combined with -%s", f.Name))
			}
		})
		runPoint(*runSpec, *traceBase, *metricsBase)
		return
	}
	if *scen != "" {
		runScenarios(*scen, *report)
		return
	}

	if !knownExp(*exp) {
		fail(2, fmt.Errorf("unknown experiment %q (have: %s, all)", *exp, strings.Join(experiments, ", ")))
	}
	var sc experiment.Scale
	switch *scaleName {
	case "paper":
		sc = experiment.PaperScale()
	case "quick":
		sc = experiment.QuickScale()
	default:
		fail(2, fmt.Errorf("unknown scale %q", *scaleName))
	}
	sc.Workers = runner.DefaultWorkers()
	if *faultSpec != "" {
		spec, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fail(2, err)
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

	fig9Docs := []experiment.DocSpec{experiment.Doc1B, experiment.Doc10K}
	fig11Clients := 64
	if *scaleName == "quick" {
		fig11Clients = 16
	}
	// Each experiment returns its formatted output.
	run := map[string]func() (string, error){
		"fig8": func() (string, error) {
			rows, err := experiment.Fig8(sc, experiment.AllDocs, experiment.AllConfigs)
			return experiment.FormatFig8(rows), err
		},
		"table1": func() (string, error) {
			var b strings.Builder
			for _, cfg := range []experiment.Config{experiment.ConfigAccounting, experiment.ConfigAccountingPD} {
				tab, err := experiment.RunTable1(cfg, 100)
				if err != nil {
					return "", err
				}
				b.WriteString(tab.Format() + "\n")
			}
			return b.String(), nil
		},
		"table2": func() (string, error) {
			rows, err := experiment.RunTable2()
			return experiment.FormatTable2(rows), err
		},
		"fig9": func() (string, error) {
			rows, err := experiment.Fig9(sc, fig9Docs)
			return experiment.FormatFig9(rows), err
		},
		"fig10": func() (string, error) {
			rows, err := experiment.Fig10(sc, fig9Docs)
			return experiment.FormatFig10(rows), err
		},
		"fig11": func() (string, error) {
			rows, err := experiment.Fig11(sc, fig9Docs, fig11Clients)
			return experiment.FormatFig11(rows, fig11Clients), err
		},
	}
	for _, name := range experiments {
		if *exp != "all" && *exp != name {
			continue
		}
		start := time.Now()
		fmt.Printf("==== %s ====\n", name)
		out, err := run[name]()
		if err != nil {
			fail(1, fmt.Errorf("%s: %w", name, err))
		}
		fmt.Print(out)
		fmt.Printf("(%s completed in %.1fs wall time)\n\n", name, time.Since(start).Seconds())
	}
}

// runPoint measures the one point spec describes and prints the
// canonical spec, the point's figure numbers and the window's ledger.
func runPoint(spec, tracePath, metricsPath string) {
	r, err := experiment.ParseRun(spec)
	if err != nil {
		fail(2, err)
	}
	if tracePath != "" || metricsPath != "" {
		r.Obs = &obs.Config{}
		if tracePath != "" {
			r.Obs.TraceJSON = create(tracePath)
		}
		if metricsPath != "" {
			r.Obs.MetricsCSV = create(metricsPath)
		}
	}
	fmt.Println(r)
	row, delta, err := experiment.Measure(r)
	if err != nil {
		fail(1, err)
	}
	fmt.Printf("%.1f conn/s, %d SYN drops, %.0f B/s QoS, %d kills\n\n",
		row.ConnPS, row.SynDrops, row.QoSRate, row.Kills)
	fmt.Print(delta.Format())
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
			fail(2, fmt.Errorf("unknown scenario %q (have: %s, all)", name, strings.Join(scenario.Names(), ", ")))
		}
		list = []*scenario.Scenario{s}
	}
	var reports []*scenario.Result
	for _, s := range list {
		start := time.Now()
		fmt.Printf("==== scenario %s ====\n%s\n", s.Name, s.Desc)
		static, adaptive, err := scenario.Compare(s)
		if err != nil {
			fail(1, err)
		}
		for _, res := range []*scenario.Result{static, adaptive} {
			out, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				fail(1, err)
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
		if err == nil {
			err = os.WriteFile(reportPath, append(out, '\n'), 0o644)
		}
		if err != nil {
			fail(1, err)
		}
		fmt.Printf("wrote %d scenario reports to %s\n", len(reports), reportPath)
	}
}

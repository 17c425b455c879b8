// Command bench measures the host cost of the Escort reproduction: the
// wall time, CPU, allocations and memory the simulator spends, end to
// end and per internal package. Simulated results (conn/s, ledger,
// detection times) are the reproduction's output, so the bench checks
// them as correctness against golden.json instead of measuring them.
//
// Each workload runs in its own child process, one after another, so
// its peak RSS is its own. A child repeats points (a fresh testbed, a
// 1 s simulated warm-up, a 10 s simulated window) until its host-time
// budget is spent. A traced run (-traced) adds a CPU and allocation
// profile and charges each sample to a layer. From the repository root:
//
//	bash bench/run.sh -workload all -seed 1 -out results.jsonl
//	bash bench/run.sh -traced -workload all
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"sim_conns_per_host_s", "conn/s"},
	{"setup_s", "s"},
	{"allocs_per_conn", "allocs"},
	{"alloc_kb_per_conn", "KiB"},
	{"peak_rss_mb", "MiB"},
	{"gc_cpu_frac", "ratio"},
}

// perLayer lists the traced run's metrics in the order they print.
func perLayer() []metricDef {
	var out []metricDef
	for _, b := range buckets() {
		out = append(out, metricDef{b + ".cpu_us_per_conn", "us"})
	}
	for _, b := range buckets() {
		out = append(out, metricDef{b + ".allocs_per_conn", "allocs"},
			metricDef{b + ".alloc_kb_per_conn", "KiB"})
	}
	for _, name := range workCountNames {
		unit := "count"
		if name == "proto.tcp.syn_accept_ratio" {
			unit = "ratio"
		}
		out = append(out, metricDef{name, unit})
	}
	return append(out, metricDef{"tracing.overhead", "ratio"})
}

func main() {
	workloadName := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 1, "input seed; seed 1 reproduces the paper's station seeds")
	seconds := flag.Float64("seconds", 12, "host seconds each workload measures for")
	trace := flag.Int("trace", 0, "1 for a traced run that prints per-layer metrics")
	traced := flag.Bool("traced", false, "same as -trace 1")
	out := flag.String("out", "", "append each workload's results to this JSON-lines file")
	traceFile := flag.String("tracefile", filepath.Join(".bench_build", "bench-trace.json"),
		"Chrome trace of the bench's spans, written by traced runs")
	compare := flag.Bool("compare", false, "compare two -out files: -compare parent.jsonl change.jsonl")
	child := flag.Bool("child", false, "run one workload in this process and print its raw result")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(os.Stdout, flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	tracing := *trace == 1 || *traced
	var selected []workload
	if *workloadName == "all" {
		selected = workloads
	} else if w, ok := lookupWorkload(*workloadName); ok {
		selected = []workload{w}
	} else {
		fatalf("unknown workload %q", *workloadName)
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	budget := time.Duration(*seconds * float64(time.Second))

	if *child {
		var golden map[string]json.RawMessage
		if err := json.Unmarshal(goldenJSON, &golden); err != nil {
			fatalf("golden.json: %v", err)
		}
		res, err := runWorkload(selected[0], *seed, budget, tracing, golden)
		if err != nil {
			fatalf("%s: %v", selected[0].name, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatalf("%v", err)
		}
		return
	}

	summary := result{Metrics: map[string]metricValue{}}
	var records []runRecord
	var traces []*childResult
	for _, w := range selected {
		var rec runRecord
		var err error
		if tracing {
			var tr *childResult
			rec, tr, err = tracedRun(w, *seed, budget)
			if tr != nil {
				traces = append(traces, tr)
			}
		} else {
			rec, err = timedRun(w, *seed, budget)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		}
		records = append(records, rec)
		summary.add(rec, len(selected) > 1)
	}
	if len(traces) > 0 {
		if err := writeChromeTrace(*traceFile, traces); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		} else {
			fmt.Printf("Chrome trace of the bench's spans: %s\n", *traceFile)
		}
	}
	if *out != "" {
		if err := appendRecords(*out, records); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			summary.Correct = false
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !summary.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add folds one workload's record in; with several workloads each
// metric name is prefixed with its workload.
func (r *result) add(rec runRecord, prefixed bool) {
	if r.Attempted == 0 {
		r.Correct = true
	}
	r.Attempted += rec.Attempted
	r.Failed += rec.Failed
	r.Correct = r.Correct && rec.Failed == 0 && rec.Attempted > 0
	defs := endToEnd
	if rec.Traced {
		defs = perLayer()
	}
	for _, d := range defs {
		v, ok := rec.Metrics[d.name]
		if !ok {
			continue
		}
		name := d.name
		if prefixed {
			name = rec.Workload + "/" + name
		}
		r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
	}
}

// runRecord is one workload run as -out stores it and -compare reads it.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Digest    json.RawMessage    `json:"digest,omitempty"`
}

func appendRecords(path string, recs []runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// runChild runs one workload in a child process and returns its result
// and its peak resident set size in MiB.
func runChild(w workload, seed uint64, budget time.Duration, traced bool) (*childResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	// A child overruns its budget by its start-up and at most its three
	// minimum points, a few seconds; the margin only stops a hung child.
	ctx, cancel := context.WithTimeout(context.Background(), budget+60*time.Second)
	defer cancel()
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(budget.Seconds(), 'f', -1, 64)}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("child: %w", err)
	}
	var res childResult
	if err := json.Unmarshal(stdout, &res); err != nil {
		return nil, 0, fmt.Errorf("child output: %w", err)
	}
	var rssMiB float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &res, rssMiB, nil
}

// timedRun is the untraced run: the end-to-end metrics.
func timedRun(w workload, seed uint64, budget time.Duration) (runRecord, error) {
	rec := runRecord{Workload: w.name, Seed: seed, Attempted: 1, Failed: 1}
	res, rss, err := runChild(w, seed, budget, false)
	if err != nil {
		return rec, err
	}
	rec.Attempted, rec.Failed, rec.Digest = len(res.Points), res.Failed, res.Digest
	stats := pointStats(res.Points)
	stats["peak_rss_mb"] = []float64{rss}
	rec.Metrics = map[string]float64{}
	fmt.Printf("%s: seed %d, %d points, %d failed\n", w.name, seed, len(res.Points), res.Failed)
	printPointErrors(res)
	fmt.Printf("  %-22s %14s %14s %14s %4s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
	row := func(name, unit string) float64 {
		q1, med, q3 := quartiles(stats[name])
		fmt.Printf("  %-22s %14.6g %14.6g %14.6g %4d  %s\n", name, med, q1, q3, len(stats[name]), unit)
		return med
	}
	for _, d := range endToEnd {
		rec.Metrics[d.name] = row(d.name, d.unit)
	}
	fmt.Println("  before the host-speed correction:")
	row(rawRate, "conn/s")
	row(rawSetup, "s")
	row(hostSpeedKey, "x nominal")
	return rec, nil
}

// Keys pointStats adds beside the end-to-end metrics.
const (
	rawRate      = "wall conn/s"
	rawSetup     = "wall setup s"
	hostSpeedKey = "host speed"
)

// pointStats turns points into per-point end-to-end values. The two
// time metrics are stated on the nominal host (see hostspeed.go); the
// raw wall figures and the host speed itself come back under their own
// keys for printing. Failed points are left out unless every point
// failed.
func pointStats(points []pointResult) map[string][]float64 {
	var ok []pointResult
	for _, p := range points {
		if p.Err == "" {
			ok = append(ok, p)
		}
	}
	if len(ok) == 0 {
		ok = points
	}
	out := map[string][]float64{}
	for _, p := range ok {
		if p.Conns == 0 || p.Timed == 0 {
			continue
		}
		n := float64(p.Conns)
		out[rawRate] = append(out[rawRate], n/p.Timed)
		out[rawSetup] = append(out[rawSetup], p.Setup)
		if p.HostSpeed > 0 {
			out["sim_conns_per_host_s"] = append(out["sim_conns_per_host_s"], n/p.Timed/p.HostSpeed)
			out["setup_s"] = append(out["setup_s"], p.Setup*p.HostSpeed)
			out[hostSpeedKey] = append(out[hostSpeedKey], p.HostSpeed)
		}
		out["allocs_per_conn"] = append(out["allocs_per_conn"], float64(p.Mallocs)/n)
		out["alloc_kb_per_conn"] = append(out["alloc_kb_per_conn"], float64(p.AllocBytes)/1024/n)
		if cpu := p.GCCPU + p.UserCPU; cpu > 0 {
			out["gc_cpu_frac"] = append(out["gc_cpu_frac"], p.GCCPU/cpu)
		}
	}
	return out
}

func printPointErrors(res *childResult) {
	for i, p := range res.Points {
		if p.Err != "" {
			fmt.Fprintf(os.Stderr, "bench: %s point %d: %s\n", res.Workload, i, p.Err)
		}
	}
}

// tracedRun runs the workload untraced and then traced, each for half
// the budget, and reports the per-layer metrics and the tracing
// overhead: untraced ÷ traced wall conn/s, since the traced run has no
// host-speed correction.
func tracedRun(w workload, seed uint64, budget time.Duration) (runRecord, *childResult, error) {
	rec := runRecord{Workload: w.name, Seed: seed, Traced: true, Attempted: 1, Failed: 1}
	base, _, err := runChild(w, seed, budget/2, false)
	if err != nil {
		return rec, nil, err
	}
	tr, _, err := runChild(w, seed, budget/2, true)
	if err != nil {
		return rec, nil, err
	}
	rec.Attempted = len(base.Points) + len(tr.Points)
	rec.Failed = base.Failed + tr.Failed
	rec.Digest = tr.Digest
	printPointErrors(base)
	printPointErrors(tr)
	rec.Metrics = map[string]float64{}
	for k, v := range tr.Layers {
		rec.Metrics[k] = v
	}
	for k, v := range tr.Work {
		rec.Metrics[k] = v
	}
	untracedRate := median(pointStats(base.Points)[rawRate])
	tracedRate := median(pointStats(tr.Points)[rawRate])
	if tracedRate > 0 {
		rec.Metrics["tracing.overhead"] = untracedRate / tracedRate
	}

	fmt.Printf("%s (traced): seed %d, %d+%d points, %d failed\n", w.name, seed,
		len(base.Points), len(tr.Points), rec.Failed)
	var cpuTotal float64
	for _, b := range buckets() {
		cpuTotal += rec.Metrics[b+".cpu_us_per_conn"]
	}
	fmt.Printf("  %-14s %12s %7s %12s %12s\n", "layer", "cpu us/conn", "share", "allocs/conn", "KiB/conn")
	for _, b := range buckets() {
		cpu := rec.Metrics[b+".cpu_us_per_conn"]
		share := 0.0
		if cpuTotal > 0 {
			share = 100 * cpu / cpuTotal
		}
		fmt.Printf("  %-14s %12.3f %6.1f%% %12.3f %12.3f\n", b, cpu, share,
			rec.Metrics[b+".allocs_per_conn"], rec.Metrics[b+".alloc_kb_per_conn"])
	}
	fmt.Printf("  every CPU sample is charged to one bucket above (%.1f us/conn in all)\n", cpuTotal)
	fmt.Println("  simulated work per point:")
	for _, name := range workCountNames {
		fmt.Printf("    %-28s %g\n", name, rec.Metrics[name])
	}
	fmt.Printf("  tracing overhead: %.3f (untraced %.1f conn/s, traced %.1f conn/s)\n",
		rec.Metrics["tracing.overhead"], untracedRate, tracedRate)
	printSpanSummary(tr.Spans)
	return rec, tr, nil
}

// printSpanSummary prints each span name's count, total and self time
// (total minus the time its child spans cover).
func printSpanSummary(spans []span) {
	type agg struct {
		n           int
		total, self float64
	}
	by := map[string]*agg{}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.Dur
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur
		}
	}
	var names []string
	for i, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.Dur
		a.self += self[i]
	}
	sort.Strings(names)
	fmt.Printf("  %-26s %5s %12s %12s\n", "span", "n", "total ms", "self ms")
	for _, name := range names {
		a := by[name]
		fmt.Printf("  %-26s %5d %12.1f %12.1f\n", name, a.n, a.total/1e3, a.self/1e3)
	}
}

// writeChromeTrace writes the traced children's spans as Chrome
// trace_event JSON, one process per workload.
func writeChromeTrace(path string, runs []*childResult) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur,omitempty"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	var events []event
	for i, r := range runs {
		pid := i + 1
		events = append(events, event{Name: "process_name", Ph: "M", Pid: pid, Tid: 1,
			Args: map[string]string{"name": r.Workload}})
		for _, s := range r.Spans {
			events = append(events, event{Name: s.Name, Ph: "X", Ts: s.Start, Dur: s.Dur, Pid: pid, Tid: 1})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	return errors.Join(err, f.Close())
}

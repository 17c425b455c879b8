package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"

	"repro/internal/experiment"
)

// A seed-1 point of each testbed workload is the paper's program:
// Testbed.AddClients (and AddSynAttacker) followed by MeasureRate over
// the same warm-up and ten-second window, and its digest is golden.
func TestSeedOnePointIsThePapersRun(t *testing.T) {
	var golden map[string]json.RawMessage
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if w.testbed == nil || (testing.Short() && w.name != "besteffort-1b") {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			digest, _, err := w.point(newMeter(), 1)
			if err != nil {
				t.Fatal(err)
			}
			got := digest.(simCounts)

			s := w.testbed
			var opt experiment.Options
			if s.synRate > 0 {
				opt.SynCapUntrusted = 64
			}
			tb, err := experiment.NewTestbed(s.config, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			tb.AddClients(s.clients, s.doc)
			if s.synRate > 0 {
				tb.AddSynAttacker(s.synRate)
			}
			rate := tb.MeasureRate(warmUp, window)
			if want := rate * window.Seconds(); float64(got.WindowCompleted) != want {
				t.Errorf("window completions = %d, MeasureRate gives %v", got.WindowCompleted, want)
			}
			ref := countTestbed(tb)
			ref.WindowCompleted = got.WindowCompleted
			if got != ref {
				t.Errorf("bench point digest\n %+v\ndiffers from the reference testbed's\n %+v", got, ref)
			}
			b, _ := json.Marshal(got)
			if !bytes.Equal(b, canonical(golden[w.name])) {
				t.Errorf("digest %s differs from golden.json", b)
			}
		})
	}
}

func TestScenarioPassesAreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scenario library twice")
	}
	var out [2][]byte
	for i := range out {
		digest, conns, err := scenarioPoint(newMeter(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if conns == 0 {
			t.Fatal("no legitimate connections completed")
		}
		if out[i], err = json.Marshal(digest); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Fatalf("two passes differ:\n%s\n%s", out[0], out[1])
	}
	var golden map[string]json.RawMessage
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0], canonical(golden["scenarios-adaptive"])) {
		t.Errorf("digest differs from golden.json:\n%s", out[0])
	}
}

func TestDeriveSeedKeepsSeedOne(t *testing.T) {
	if deriveSeed(42, 1) != 42 {
		t.Fatal("seed 1 must leave base seeds unchanged")
	}
	if deriveSeed(42, 2) == deriveSeed(42, 1) || deriveSeed(1, 2) == deriveSeed(2, 1) {
		t.Fatal("seeds must separate runs and stations")
	}
	lib, err := scenarios(2)
	if err != nil {
		t.Fatal(err)
	}
	if lib[0].Faults == "" || lib[0].Faults == "seed=31,reaper=250ms" {
		t.Fatalf("scenario seed not derived: %q", lib[0].Faults)
	}
}

// Python's statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25];
// for [3, 1, 2] it is [1.0, 2.0, 3.0].
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 7}, 4.5, 6, 7.5},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	seq := func(base, step float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = base + step*float64(i%5)
		}
		return out
	}
	parent := seq(100, 1, 10) // 100..104, spread ~3%
	for _, c := range []struct {
		name   string
		change []float64
		higher bool
		want   string
	}{
		{"same runs", seq(100, 1, 10), true, unchanged},
		{"clear gain, ten pairs", seq(120, 1, 10), true, improved},
		{"clear gain, five pairs", seq(120, 1, 5), true, unresolved},
		{"loss beyond bound", seq(80, 1, 10), true, worse},
		{"lower is better", seq(80, 1, 10), false, improved},
		{"loss within bound", seq(97, 1, 10), true, unchanged},
		{"spread wider than bound", []float64{60, 140, 80, 120, 100, 60, 140, 80, 120, 100}, true, unresolved},
	} {
		if got := judge(parent, c.change, c.higher, 0.1); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json names exactly the metrics the bench prints, with
// their units, and exactly its workloads.
func TestBenchmarkJSONMatchesTheBench(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, bench prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, bench prints %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer())
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, bench has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d = %s, bench has %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/proto/tcp.(*Module).deliver", "repro/internal/path.(*Path).worker"}, "proto.tcp"},
		{[]string{"runtime.mallocgc", "repro/internal/lib.NewQueue", "repro/internal/path.(*Manager).create"}, "lib"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/msg.New"}, "msg"},
		{[]string{"repro/internal/experiment.(*Testbed).TotalCompleted", "main.main"}, bucketOther},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, bucketSched},
		{[]string{"syscall.Syscall", "main.main"}, bucketOther},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// A real allocation profile decodes, names its sample values, and
// every sample lands in exactly one bucket.
func TestParseProfile(t *testing.T) {
	keep := make([][]byte, 0, 1000)
	for i := 0; i < 1000; i++ {
		keep = append(keep, make([]byte, 1<<12))
	}
	_ = keep
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.value("alloc_objects") < 0 || p.value("alloc_space") < 0 {
		t.Fatalf("sample types %v", p.sampleTypes)
	}
	if len(p.samples) == 0 {
		t.Fatal("no samples")
	}
	var total, bucketed int64
	i := p.value("alloc_objects")
	for _, s := range p.samples {
		total += s.values[i]
		if len(p.stack(s)) == 0 {
			t.Fatal("sample without a stack")
		}
	}
	for _, n := range sumByBucket(p, "alloc_objects") {
		bucketed += n
	}
	if total != bucketed {
		t.Fatalf("buckets hold %d of %d objects", bucketed, total)
	}
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Fatal("truncated message decoded")
	}
}

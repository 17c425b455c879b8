package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cost"
	"repro/internal/escort"
	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// serveObserved boots an Accounting server with the given sinks and
// drives one client against it for d simulated cycles, leaving the
// Observer open. The run is fully deterministic: virtual clock, seeded
// workload, no wall-clock input.
func serveObserved(t *testing.T, cfg *obs.Config, d sim.Cycles) *escort.Server {
	t.Helper()
	eng := sim.New()
	hub := netsim.NewHub(eng, 100_000_000, 3000)
	srv, err := escort.NewServer(eng, cost.Default(), hub, escort.Options{
		Kind: escort.KindAccounting,
		Docs: map[string][]byte{"/doc1k": bytes.Repeat([]byte("k"), 1024)},
		Obs:  cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := workload.NewClient(eng, hub, "client0",
		lib.IPv4(10, 0, 1, 1), netsim.MAC(0x0200_0000_1001),
		escort.ServerIP, "/doc1k", 1)
	c.Start()
	srv.Run(d)
	srv.Stop()
	return srv
}

// runObserved runs serveObserved for 50 simulated ms and returns the
// closed Observer.
func runObserved(t *testing.T, cfg *obs.Config) *obs.Observer {
	t.Helper()
	srv := serveObserved(t, cfg, 50*sim.CyclesPerMillisecond)
	if err := srv.Obs.Close(); err != nil {
		t.Fatal(err)
	}
	return srv.Obs
}

func traceRun(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	runObserved(t, &obs.Config{TraceJSON: &buf})
	return buf.Bytes()
}

// TestTraceGolden pins the trace output byte for byte: the same
// deterministic run must produce the same document on every machine,
// and it must match the committed golden file. Regenerate with
// go test ./internal/obs -run TestTraceGolden -update.
func TestTraceGolden(t *testing.T) {
	got := traceRun(t)
	again := traceRun(t)
	if !bytes.Equal(got, again) {
		t.Fatalf("two identical runs produced different traces (%d vs %d bytes)", len(got), len(again))
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace diverges from %s: got %d bytes, want %d (rerun with -update if the change is intended)",
			golden, len(got), len(want))
	}
}

// TestTraceDocument checks the structural contract of the JSON: a
// valid trace_event document with per-domain process metadata and
// per-owner thread tracks, each named before its first event, so
// Perfetto can lay it out.
func TestTraceDocument(t *testing.T) {
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Pid  uint32         `json:"pid"`
			Tid  uint32         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	raw := traceRun(t)
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	type track struct{ pid, tid uint32 }
	named := map[track]bool{}
	var procs, tracks, spans, instants int
	for i, e := range doc.TraceEvents {
		switch e.Name {
		case "process_name":
			procs++
		case "thread_name":
			tracks++
			named[track{e.Pid, e.Tid}] = true
		}
		if e.Ph != "M" && !named[track{e.Pid, e.Tid}] {
			t.Errorf("record %d (%s) on pid=%d tid=%d precedes its thread_name", i, e.Name, e.Pid, e.Tid)
		}
		switch e.Ph {
		case "X":
			spans++
		case "i":
			instants++
		}
	}
	if procs == 0 {
		t.Error("no process_name metadata (per-domain processes missing)")
	}
	if tracks == 0 {
		t.Error("no thread_name metadata (per-owner tracks missing)")
	}
	if spans == 0 || instants == 0 {
		t.Errorf("spans=%d instants=%d, want both > 0", spans, instants)
	}
}

// TestTraceStreams checks that the JSON trace is written as the run
// goes rather than held until Close: a run long enough to outgrow the
// tracer's write buffer has already reached the sink before Close,
// and Close completes it into a valid document.
func TestTraceStreams(t *testing.T) {
	var buf bytes.Buffer
	srv := serveObserved(t, &obs.Config{TraceJSON: &buf}, 200*sim.CyclesPerMillisecond)
	if buf.Len() == 0 {
		t.Fatal("no trace bytes reached the sink before Close")
	}
	if err := srv.Obs.Close(); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("closed trace (%d bytes) is not valid JSON", buf.Len())
	}
}

// TestMetricsInvariant asserts the Table 1 invariant on every sample:
// the per-group cycle counters must sum exactly to the virtual clock,
// i.e. every burned cycle is attributed to some owner at every tick.
func TestMetricsInvariant(t *testing.T) {
	var csv bytes.Buffer
	o := runObserved(t, &obs.Config{MetricsCSV: &csv})
	samples := o.Metrics.Samples()
	if len(samples) < 3 {
		t.Fatalf("got %d samples from a 50 ms run at a 10 ms tick, want >= 3", len(samples))
	}
	for i, s := range samples {
		var sum sim.Cycles
		for _, c := range s.Cycles {
			sum += c
		}
		if sum != s.At {
			t.Errorf("sample %d at %d cycles: owner cycles sum to %d (diff %d)",
				i, s.At, sum, int64(s.At)-int64(sum))
		}
		if i > 0 && s.At <= samples[i-1].At {
			t.Errorf("sample %d At=%d not after previous %d", i, s.At, samples[i-1].At)
		}
	}
	if csv.Len() == 0 {
		t.Error("CSV sink is empty")
	}
}

// TestDisabledObsAllocatesNothing is the zero-cost-when-disabled
// contract: every tracer and metrics method must be callable on the
// nil receiver without allocating. This is what lets every subsystem
// emit unconditionally through a pre-resolved pointer.
func TestDisabledObsAllocatesNothing(t *testing.T) {
	var tr *obs.Tracer
	var m *obs.Metrics
	owner := "Active Path trusted:80#1"
	allocs := testing.AllocsPerRun(100, func() {
		tr.Process(1, "tcpip")
		tr.EngineFire(0, 10)
		tr.Idle(10, 20)
		tr.Syscall(1, owner, "bufAlloc", 20, 30, false)
		tr.ThreadSpawn(1, owner, "t0", 30)
		tr.ThreadSlice(1, owner, "t0", 30, 40, "yield")
		tr.ThreadExit(1, owner, "t0", 40)
		tr.Cross(owner, 0, 1, 40, 50)
		tr.TLBFlush(1, owner, 50)
		tr.PathCreate("p", 4, 50, 60)
		tr.PathDestroy("p", 60, 70)
		tr.PathKill("p", 100, 70, 80)
		tr.Demux("eth0", "found", "p", 80, 90)
		tr.IOBufAlloc(owner, 2, true, 90)
		tr.Policy("synCapDrop", owner, "", 90)
		m.Bind(nil)
		m.Poll(100)
		m.Final(100)
		_ = m.Samples()
	})
	if allocs != 0 {
		t.Fatalf("disabled obs allocated %.1f times per run, want 0", allocs)
	}
}

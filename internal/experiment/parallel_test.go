package experiment

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment/runner"
	"repro/internal/obs"
	"repro/internal/sim"
)

// memSinks is a concurrency-safe ObsFactory capturing per-label metrics
// CSV output in memory, so serial and parallel sweeps can be compared
// byte for byte.
type memSinks struct {
	mu   sync.Mutex
	csvs map[string]*bytes.Buffer
}

func newMemSinks() *memSinks { return &memSinks{csvs: map[string]*bytes.Buffer{}} }

func (m *memSinks) factory(label string) *obs.Config {
	m.mu.Lock()
	defer m.mu.Unlock()
	buf := &bytes.Buffer{}
	m.csvs[label] = buf
	return &obs.Config{MetricsCSV: buf}
}

func detScale() Scale {
	return Scale{
		Warm:    sim.CyclesPerSecond / 4,
		Window:  sim.CyclesPerSecond / 2,
		Clients: []int{1, 4},
	}
}

// TestParallelSweepDeterminism runs the Figure 8 sweep serially and with
// the parallel runner and asserts the per-point connection rates and the
// per-run metrics CSV files are identical down to the byte. This is the
// contract that lets escort-bench always sweep in parallel: fanning
// points out across workers must be unobservable in the results.
func TestParallelSweepDeterminism(t *testing.T) {
	docs := []DocSpec{Doc1B}
	configs := []Config{ConfigScout, ConfigAccounting}

	run := func(workers int) ([]Row, map[string]*bytes.Buffer) {
		sinks := newMemSinks()
		sc := detScale()
		sc.Workers = workers
		sc.Obs = sinks.factory
		rows, err := Fig8(sc, docs, configs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rows, sinks.csvs
	}

	serialRows, serialCSV := run(1)
	parallelRows, parallelCSV := run(4)

	if !reflect.DeepEqual(serialRows, parallelRows) {
		t.Fatalf("rows diverged:\nserial:   %+v\nparallel: %+v", serialRows, parallelRows)
	}
	if len(serialRows) != len(docs)*len(configs)*len(detScale().Clients) {
		t.Fatalf("unexpected row count %d", len(serialRows))
	}
	if len(serialCSV) != len(serialRows) || len(parallelCSV) != len(parallelRows) {
		t.Fatalf("CSV capture count: serial=%d parallel=%d rows=%d",
			len(serialCSV), len(parallelCSV), len(serialRows))
	}
	for label, want := range serialCSV {
		got, ok := parallelCSV[label]
		if !ok {
			t.Fatalf("parallel run missing metrics for %s", label)
		}
		if want.Len() == 0 {
			t.Fatalf("empty metrics CSV for %s", label)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("metrics CSV for %s differs between serial and parallel runs", label)
		}
	}
}

// TestParallelLedgerDeterminism drives testbeds through the runner
// directly and compares full per-point ledger snapshots — not just the
// headline rate — between a serial and a parallel execution of the same
// points. The ledger is the paper's accounting ground truth, so if any
// cross-worker state leaked into a simulation it would show up here.
func TestParallelLedgerDeterminism(t *testing.T) {
	type pointResult struct {
		Rate   float64
		Ledger string
	}
	sc := detScale()
	configs := []Config{ConfigAccounting, ConfigAccountingPD}

	runPoint := func(i int) (pointResult, error) {
		cfg := configs[i%len(configs)]
		clients := sc.Clients[i/len(configs)%len(sc.Clients)]
		tb, err := NewTestbed(cfg, Options{})
		if err != nil {
			return pointResult{}, err
		}
		defer tb.Close()
		tb.AddClients(clients, Doc1B.Name)
		rate := tb.MeasureRate(sc.Warm, sc.Window)
		end := tb.Eng.Now()
		delta := tb.Escort.K.Ledger().Snapshot(end).Diff(core.Snapshot{})
		return pointResult{Rate: rate, Ledger: fmt.Sprintf("t=%d\n%s", end, delta.Format())}, nil
	}

	n := len(configs) * len(sc.Clients)
	serial, err := runner.MapErr(n, 1, runPoint)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runner.MapErr(n, 4, runPoint)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Rate != parallel[i].Rate {
			t.Errorf("point %d rate: serial %v parallel %v", i, serial[i].Rate, parallel[i].Rate)
		}
		if serial[i].Ledger != parallel[i].Ledger {
			t.Errorf("point %d ledger snapshot diverged:\nserial:\n%s\nparallel:\n%s",
				i, serial[i].Ledger, parallel[i].Ledger)
		}
	}
}

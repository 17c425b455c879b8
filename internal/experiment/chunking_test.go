package experiment

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestRunChunkIndependence splits a 2 s run into a seeded random set of
// absolute Kernel.Run deadlines and checks it against one call to the
// same end: the same virtual clock, the same completions and the same
// ledger delta, for each Escort config with and without CGI attackers.
// The metrics CSV is left out: Kernel.Run samples at its entry and exit
// and when it resumes a paused thread, so a sample's time can move with
// a chunk boundary.
func TestRunChunkIndependence(t *testing.T) {
	const window = 2 * sim.CyclesPerSecond
	type outcome struct {
		now       sim.Cycles
		completed uint64
		delta     core.Delta
	}
	run := func(t *testing.T, cfg Config, cgi int, deadlines []sim.Cycles) outcome {
		tb, err := NewTestbed(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		tb.AddClients(8, Doc1K.Name)
		tb.AddCGIAttackers(cgi)
		base, start := tb.Eng.Now(), tb.snapshot()
		for _, d := range deadlines {
			tb.Escort.K.Run(base + d)
		}
		return outcome{tb.Eng.Now() - base, tb.TotalCompleted(), tb.snapshot().Diff(start)}
	}
	rng := sim.NewRand(20261019)
	for _, cfg := range []Config{ConfigScout, ConfigAccounting, ConfigAccountingPD} {
		for _, cgi := range []int{0, 2} {
			var partitions [][]sim.Cycles
			for range 3 {
				cuts := make([]sim.Cycles, rng.Intn(40))
				for i := range cuts {
					cuts[i] = sim.Cycles(1 + rng.Intn(int(window-1)))
				}
				slices.Sort(cuts)
				partitions = append(partitions, append(cuts, window))
			}
			t.Run(fmt.Sprintf("%s/cgi=%d", cfg, cgi), func(t *testing.T) {
				whole := run(t, cfg, cgi, []sim.Cycles{window})
				if cgi == 0 && whole.completed == 0 {
					t.Fatal("no request completed")
				}
				for _, deadlines := range partitions {
					got := run(t, cfg, cgi, deadlines)
					if got.now != whole.now || got.completed != whole.completed ||
						got.delta.Measured != whole.delta.Measured ||
						!maps.Equal(got.delta.ByOwner, whole.delta.ByOwner) {
						t.Errorf("%d chunks: clock %d, %d completions, %d cycles measured; one call: %d, %d, %d (or the ledger deltas differ)",
							len(deadlines), got.now, got.completed, got.delta.Measured,
							whole.now, whole.completed, whole.delta.Measured)
					}
				}
			})
		}
	}
}

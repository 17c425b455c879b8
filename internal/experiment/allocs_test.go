package experiment

import (
	"runtime"
	"testing"
)

// TestAllocsPerConnectionCeiling runs three short points and fails
// when the heap allocations per completed connection (Mallocs over the
// whole Measure, testbed set-up included) rise above the point's
// ceiling. Each point runs once before it is measured, so the message
// and frame pools are warm whatever ran before. Measured on this code
// (go1.24, -cpu 1, 2, 4 and 8, 0–2 GCs per point): Scout 43.0–43.2,
// Accounting_PD 145.6–146.9, SYN flood 104.7–105.2. A GC empties the
// sync.Pools, and refilling them costs ~15, ~26 and ~17 allocations
// per GC on the three points (measured with collections forced back
// to back: 157, 88 and 163 GCs added 2.8, 30 and 7 per connection).
// Each ceiling is the highest measured value plus the refills of about
// ten more GCs, rounded up; one new allocation per connection (or per
// segment on the 10 KB point) goes over it.
func TestAllocsPerConnectionCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	points := []struct {
		spec    string
		ceiling float64
	}{
		{"config=Scout,doc=/doc1,clients=64,warm=0,window=1s", 44},
		{"config=Accounting_PD,doc=/doc10k,clients=64,warm=0,window=1s", 151},
		{"config=Accounting,doc=/doc1,clients=64,syn=10000,syncap=64,warm=0,window=1s", 106},
	}
	for _, p := range points {
		r, err := ParseRun(p.spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Measure(r); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		row, _, err := Measure(r)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		conns := row.ConnPS * r.Window.Seconds()
		if conns == 0 {
			t.Fatalf("%s: no connections completed", p.spec)
		}
		perConn := float64(after.Mallocs-before.Mallocs) / conns
		t.Logf("%s: %.1f allocations per connection (%.0f connections, %d GCs)", p.spec, perConn, conns, after.NumGC-before.NumGC)
		if perConn > p.ceiling {
			t.Errorf("%s: %.1f allocations per connection, ceiling %.0f", p.spec, perConn, p.ceiling)
		}
	}
}

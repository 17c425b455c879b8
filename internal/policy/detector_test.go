package policy

import (
	"bytes"
	"testing"

	"repro/internal/lib"
	"repro/internal/obs"
	"repro/internal/proto/tcp"
	"repro/internal/sim"
)

// fakeDemand is a DemandSource reporting one source's cumulative SYN
// count, so the detector's ladder can be driven tick by tick without a
// TCP module.
type fakeDemand struct {
	ip   uint32
	syns uint64
}

func (f *fakeDemand) EachSrcDemand(fn func(uint32, tcp.SrcDemand)) {
	fn(f.ip, tcp.SrcDemand{Syns: f.syns})
}

// TestDetectorReboxesForgivenSource pins the forgiveness contract: a
// zero-byte demand flood climbs to strike 3 and is boxed, 50 clean
// ticks forgive it, and re-offending walks it up the whole ladder
// again — including the box rung. Forgiveness that left the kill latch
// set would park a returning attacker on the shed rung forever.
func TestDetectorReboxesForgivenSource(t *testing.T) {
	k, mgr := newEnv(t)
	src := &fakeDemand{ip: lib.IPv4(192, 168, 7, 7)}
	d := EnableDetector(k, mgr, nil, src, nil)
	var boxed []uint32
	d.OnOffender = func(ip uint32) { boxed = append(boxed, ip) }

	const tick = 10 * sim.CyclesPerMillisecond
	var at sim.Cycles
	step := func(syns uint64) {
		src.syns += syns
		d.tick(obs.Sample{At: at})
		at += tick
	}
	for at <= detectorWarmup {
		step(0)
	}
	offend := func() {
		for i := 0; i < strikeKill; i++ {
			step(2 * asymMinArrivals)
		}
	}

	offend()
	if len(boxed) != 1 {
		t.Fatalf("first offense: boxed %d times, want 1", len(boxed))
	}
	for i := 0; i < detectorForgiveTicks; i++ {
		step(0)
	}
	if !bytes.Contains(d.DecisionLog(), []byte(",forgive,")) {
		t.Fatalf("source not forgiven after %d clean ticks:\n%s", detectorForgiveTicks, d.DecisionLog())
	}
	if d.SourceShed(src.ip) {
		t.Fatal("forgiveness did not lift the shed")
	}

	offend()
	if len(boxed) != 2 || d.Boxed != 2 {
		t.Fatalf("re-offense after forgiveness: boxed %d times (Boxed=%d), want 2\n%s",
			len(boxed), d.Boxed, d.DecisionLog())
	}
	for _, ip := range boxed {
		if ip != src.ip {
			t.Fatalf("boxed %s, want %s", lib.FormatIPv4(ip), lib.FormatIPv4(src.ip))
		}
	}
}

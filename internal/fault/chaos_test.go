// Chaos harness: every fault mix the spec grammar can express, thrown
// at the Figure 8 workload (best-effort clients plus CGI attackers on
// the Accounting configuration), with the paper's invariants asserted
// after the storm:
//
//   - the cycle ledger stays balanced (Unaccounted == 0) — faults and
//     the recovery they trigger are charged like any other work;
//   - dead owners hold nothing: pathKill under fire still reclaims
//     every page, stack, lock, event and semaphore;
//   - the engine quiesces — no leaked timers or orphaned events keep
//     the simulation alive;
//   - the same seed reproduces the same run, byte for byte.
//
// The file lives in package fault_test because the testbed (package
// experiment) imports package fault.
package fault_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// chaosResult is the comparable summary of one run; two runs of the
// same spec must produce equal values (and equal CSV bytes).
type chaosResult struct {
	completed uint64
	failed    uint64
	kills     uint64
	reaped    uint64
	shed      uint64
	net       fault.NetStats
	csv       string
}

const chaosRun = 2 * sim.CyclesPerSecond

// runChaos builds the Fig8-style testbed under the given spec, runs it,
// and checks the survival invariants.
func runChaos(t *testing.T, spec string) chaosResult {
	t.Helper()
	sp, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	var csv bytes.Buffer
	tb, err := experiment.NewTestbed(experiment.ConfigAccounting, experiment.Options{
		Faults: sp,
		Obs:    &obs.Config{MetricsCSV: &csv},
	})
	if err != nil {
		t.Fatalf("NewTestbed: %v", err)
	}
	tb.AddClients(6, "/doc1k")
	tb.AddCGIAttackers(2)

	ledger := tb.Escort.K.Ledger()
	before := ledger.Snapshot(tb.Eng.Now())
	tb.RunFor(chaosRun)

	// Invariants 1 and 2: the ledger balanced through the chaos, and no
	// dead owner retains resources. Killed paths are the interesting
	// case — their owners died mid-flight.
	if err := ledger.CheckContainment(before, ledger.Snapshot(tb.Eng.Now())); err != nil {
		t.Error(err)
	}

	res := chaosResult{
		completed: tb.TotalCompleted(),
		kills:     tb.Escort.Paths.Kills,
		reaped:    tb.Escort.TCP.Reaped,
		shed:      tb.Escort.TCP.ShedCount,
	}
	for _, c := range tb.Clients {
		res.failed += c.Failed
	}
	if tb.Inj != nil {
		res.net = tb.Inj.Stats
	}

	// Invariant 3: quiescence. Close unwinds the kernel threads; what
	// remains is the stations' own timers (think/retransmit/attack
	// schedules) plus in-flight and delayed frames — a few per actor. A
	// leak (periodic events surviving their owner, re-armed timers on
	// dead paths) accumulates over the run and blows far past this.
	tb.Close()
	if p := tb.Eng.Pending(); p > 1000 {
		t.Errorf("engine not quiescent after Close: %d pending events", p)
	}
	res.csv = csv.String()

	// Invariant 4: the service survived — chaos degrades, it must not
	// kill. Every mix leaves the server able to finish real requests.
	if res.completed == 0 {
		t.Error("no client request completed under fault load")
	}
	return res
}

// kitchenSink is the heaviest mix: network faults, failpoints, the
// watchdog and accept shedding layered on one run.
const kitchenSink = "seed=17,drop=0.01,corrupt=0.01,dup=0.02,jitter=0.2:1ms,fp:kmem.alloc=p0.01,watchdog,shed=0.95"

// chaosScenarios is the seeded matrix: one entry per fault family plus
// the kitchen-sink mix.
var chaosScenarios = []struct {
	name string
	spec string
}{
	{"drop", "seed=11,drop=0.02"},
	{"corrupt-dup", "seed=12,corrupt=0.02,dup=0.05"},
	{"reorder-jitter", "seed=13,reorder=0.2:2ms,jitter=0.3:1ms"},
	{"flap", "seed=14,flap=300ms:20ms"},
	{"partition", "seed=15,partition=500ms:150ms"},
	// thread.spawn uses Nth=25 so the failure lands on a runtime path
	// create, past the handful of boot-time spawns (a boot-time hit is
	// its own test below: the server must refuse to start, not panic).
	{"failpoints", "seed=16,fp:kmem.alloc=p0.02,fp:thread.spawn=n25,fp:iobuf.grant=p0.01"},
	{"kitchen-sink", kitchenSink},
	// The scenario library's degradation knobs under a lossy network:
	// the session reaper scanning while segments drop, and the
	// shed-pressure client puzzle armed (dormant until pressure, but
	// parsed, wired and charged like every other knob).
	{"reaper", "seed=18,drop=0.01,reaper=250ms"},
	{"puzzle-shed", "seed=19,drop=0.01,shed=0.95,puzzle=10"},
}

func TestChaosMatrix(t *testing.T) {
	for _, sc := range chaosScenarios {
		t.Run(sc.name, func(t *testing.T) {
			res := runChaos(t, sc.spec)
			// The CGI attackers guarantee pathKills, which is what makes
			// the dead-owner sweep above meaningful.
			if res.kills == 0 {
				t.Error("no path was killed; the leak check did not exercise pathKill")
			}
			t.Logf("%s: completed=%d failed=%d kills=%d reaped=%d shed=%d net=%+v",
				sc.name, res.completed, res.failed, res.kills, res.reaped, res.shed, res.net)
		})
	}
}

// TestBootFailpointFailsGracefully hits a failpoint during server
// construction: the testbed must come back with a typed error chain
// ending in fault.ErrInjected — no panic, no half-built server.
func TestBootFailpointFailsGracefully(t *testing.T) {
	sp, err := fault.ParseSpec("seed=16,fp:thread.spawn=n3")
	if err != nil {
		t.Fatal(err)
	}
	_, err = experiment.NewTestbed(experiment.ConfigAccounting, experiment.Options{Faults: sp})
	if err == nil {
		t.Fatal("boot survived a spawn failpoint on a boot-time thread")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("boot failure does not wrap fault.ErrInjected: %v", err)
	}
}

// TestChaosDeterminism reruns the kitchen-sink mix and requires
// byte-equal results: same counters, same injected-fault counts, same
// metrics CSV.
func TestChaosDeterminism(t *testing.T) {
	a := runChaos(t, kitchenSink)
	b := runChaos(t, kitchenSink)
	if a != b {
		t.Fatalf("identical seeds diverged:\n a=%+v\n b=%+v",
			summary(a), summary(b))
	}
}

// TestChaosSmoke is the quick single-mix check: one kitchen-sink run
// with every survival invariant asserted.
func TestChaosSmoke(t *testing.T) {
	runChaos(t, kitchenSink)
}

// summary strips the CSV body for readable failure output.
func summary(r chaosResult) chaosResult {
	r.csv = ""
	return r
}

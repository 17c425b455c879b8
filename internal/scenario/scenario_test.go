package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Detection-quality gate against the committed baseline. The runs are
// byte-deterministic, so any drift is a code-behaviour change; the
// tolerances let intentional small shifts land without regenerating
// the baseline, while regressions that matter (slower detection,
// collateral damage, lost goodput) fail.
const (
	ttdTol     = 0.10 // time-to-detect may grow ≤10 %...
	ttdAbsMs   = 10.0 // ...or one 10 ms sample tick, whichever is larger
	goodputTol = 0.05 // goodput retained may drop ≤5 %
)

// gateScenarios checks every scenario+policy pair of the baseline
// against the new run and returns one line per violation. The gate is
// directional: faster detection, fewer kills or better goodput pass at
// any size.
func gateScenarios(base, got []Result) []string {
	index := make(map[string]*Result, len(got))
	for i := range got {
		index[got[i].Scenario+"/"+got[i].Policy] = &got[i]
	}
	var violations []string
	for _, old := range base {
		key := old.Scenario + "/" + old.Policy
		r, ok := index[key]
		if !ok {
			violations = append(violations, fmt.Sprintf("scenario %s: missing from the new run", key))
			continue
		}
		if old.Detected && !r.Detected {
			violations = append(violations, fmt.Sprintf("scenario %s: attack no longer detected", key))
			continue
		}
		if r.TimeToDetectMs-old.TimeToDetectMs > ttdAbsMs &&
			r.TimeToDetectMs > old.TimeToDetectMs*(1+ttdTol) {
			violations = append(violations,
				fmt.Sprintf("scenario %s: time_to_detect_ms regressed %.0f -> %.0f (tolerance +%.0f%% / +%.0fms)",
					key, old.TimeToDetectMs, r.TimeToDetectMs, ttdTol*100, ttdAbsMs))
		}
		if r.FalseKillRate > old.FalseKillRate {
			violations = append(violations,
				fmt.Sprintf("scenario %s: false_kill_rate regressed %.3f -> %.3f (no increase allowed)",
					key, old.FalseKillRate, r.FalseKillRate))
		}
		if r.GoodputRetained < old.GoodputRetained*(1-goodputTol) {
			violations = append(violations,
				fmt.Sprintf("scenario %s: goodput_retained regressed %.3f -> %.3f (tolerance -%.0f%%)",
					key, old.GoodputRetained, r.GoodputRetained, goodputTol*100))
		}
	}
	return violations
}

// policyRun is one memoised RunPolicy call.
type policyRun struct {
	once sync.Once
	res  *Result
	err  error
}

// policyRuns holds the RunPolicy result of each scenario+policy pair.
// The runs are byte-deterministic (TestScenarioDeterminism), so the
// tests below that check different properties of the same run share
// one execution instead of repeating it.
var policyRuns sync.Map

func runPolicy(s *Scenario, adaptive bool) (*Result, error) {
	v, _ := policyRuns.LoadOrStore(fmt.Sprintf("%s/%v", s.Name, adaptive), new(policyRun))
	r := v.(*policyRun)
	r.once.Do(func() { r.res, r.err = RunPolicy(s, adaptive) })
	return r.res, r.err
}

// compare is Compare over the memoised runs.
func compare(s *Scenario) (static, adaptive *Result, err error) {
	return compareWith(s, runPolicy)
}

// TestScenarioMatrix runs every registered scenario end to end under
// the static policy: baseline plus attacked run, containment
// invariants, detection and goodput acceptance.
func TestScenarioMatrix(t *testing.T) {
	for _, s := range All {
		t.Run(s.Name, func(t *testing.T) {
			res, err := runPolicy(s, false)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: detected=%v ttd=%.0fms signal=%d goodput=%.2f (%d/%d) falseKills=%d pathKills=%d",
				res.Scenario, res.Detected, res.TimeToDetectMs, res.DetectSignal,
				res.GoodputRetained, res.AttackedCompleted, res.BaselineCompleted,
				res.FalseKills, res.PathKills)
		})
	}
}

// TestCompareMatrix runs every scenario under both policies and
// enforces the adaptive regression bounds: containment under both,
// adaptive time-to-detect no later than static, zero false kills.
func TestCompareMatrix(t *testing.T) {
	for _, s := range All {
		t.Run(s.Name, func(t *testing.T) {
			st, ad, err := compare(s)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: static ttd=%.0fms goodput=%.2f | adaptive ttd=%.0fms goodput=%.2f falseKills=%d",
				s.Name, st.TimeToDetectMs, st.GoodputRetained,
				ad.TimeToDetectMs, ad.GoodputRetained, ad.FalseKills)
		})
	}
}

// TestScenariosSmoke checks the attacked leg of every class under both
// policies: the attack is detected and the run's report is complete.
func TestScenariosSmoke(t *testing.T) {
	for _, s := range All {
		for _, mode := range []struct {
			name     string
			adaptive bool
		}{{"static", false}, {"adaptive", true}} {
			t.Run(s.Class+"/"+mode.name, func(t *testing.T) {
				res, err := runPolicy(s, mode.adaptive)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Detected {
					t.Fatalf("attack not detected (signal %d, threshold %d)",
						res.DetectSignal, s.DetectThreshold)
				}
				if res.Policy != mode.name || res.CSV == "" {
					t.Fatalf("incomplete report: policy %q, %d CSV bytes", res.Policy, len(res.CSV))
				}
			})
		}
	}
}

// TestScenariosBaseline is the detection-quality gate: every scenario
// under both policies (containment, detection and the adaptive
// regression bounds asserted by Compare), then each report checked
// against the committed SCENARIOS.json. Regenerate the baseline with
// `make scenarios`.
func TestScenariosBaseline(t *testing.T) {
	data, err := os.ReadFile("../../SCENARIOS.json")
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Scenarios []Result `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("SCENARIOS.json: %v", err)
	}
	var got []Result
	for _, s := range All {
		t.Run(s.Name, func(t *testing.T) {
			st, ad, err := compare(s)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, *st, *ad)
			t.Logf("static ttd=%.0fms goodput=%.2f | adaptive ttd=%.0fms goodput=%.2f",
				st.TimeToDetectMs, st.GoodputRetained, ad.TimeToDetectMs, ad.GoodputRetained)
		})
	}
	for _, v := range gateScenarios(base.Scenarios, got) {
		t.Error(v)
	}
}

// TestScenarioGate pins the gate's tolerances and directionality.
func TestScenarioGate(t *testing.T) {
	old := Result{Scenario: "s", Policy: "static", Detected: true,
		TimeToDetectMs: 500, FalseKillRate: 0.1, GoodputRetained: 0.8}
	with := func(f func(r *Result)) []Result {
		r := old
		f(&r)
		return []Result{r}
	}
	cases := []struct {
		name string
		base Result
		got  []Result
		fail bool
	}{
		{"unchanged", old, []Result{old}, false},
		{"much faster detection", old, with(func(r *Result) { r.TimeToDetectMs = 1 }), false},
		{"no false kills", old, with(func(r *Result) { r.FalseKillRate = 0 }), false},
		{"much better goodput", old, with(func(r *Result) { r.GoodputRetained = 2 }), false},
		{"ttd +9ms on 20ms", Result{Scenario: "s", Policy: "static", Detected: true, TimeToDetectMs: 20},
			[]Result{{Scenario: "s", Policy: "static", Detected: true, TimeToDetectMs: 29}}, false},
		{"ttd +11% on 500ms", old, with(func(r *Result) { r.TimeToDetectMs = 555 }), true},
		{"false kill increase", old, with(func(r *Result) { r.FalseKillRate = 0.101 }), true},
		{"goodput -4%", old, with(func(r *Result) { r.GoodputRetained = 0.8 * 0.96 }), false},
		{"goodput -6%", old, with(func(r *Result) { r.GoodputRetained = 0.8 * 0.94 }), true},
		{"detection lost", old, with(func(r *Result) { r.Detected = false }), true},
		{"pair missing", old, with(func(r *Result) { r.Policy = "adaptive" }), true},
	}
	for _, c := range cases {
		v := gateScenarios([]Result{c.base}, c.got)
		if (len(v) > 0) != c.fail {
			t.Errorf("%s: violations %q, want failure=%v", c.name, v, c.fail)
		}
	}
}

// TestScenarioDeterminism reruns each scenario's attacked leg and
// requires byte-identical metrics CSV and equal outcomes — the seeded
// attack workloads must not perturb the simulation's determinism.
func TestScenarioDeterminism(t *testing.T) {
	for _, s := range All {
		t.Run(s.Name, func(t *testing.T) {
			a, err := runOnce(s, true, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runOnce(s, true, false)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				ac, bc := a, b
				ac.csv, bc.csv = "", ""
				t.Fatalf("outcomes diverged:\n a=%+v\n b=%+v (csv equal: %v)",
					ac, bc, a.csv == b.csv)
			}
			if a.csv != b.csv {
				t.Fatal("metrics CSV bytes diverged between identically-seeded runs")
			}
			if a.csv == "" {
				t.Fatal("no metrics CSV captured")
			}
		})
	}
}

// TestDetectorDecisionDeterminism is the adaptive policy's
// byte-determinism witness: the detector's decision log (every
// demote/shed/kill/box/forgive row, with cycle timestamps and feature
// values) must be byte-identical across repeated same-seed runs, and a
// sweep running all scenarios concurrently must reproduce the serial
// logs exactly — the detector may not leak goroutine scheduling into
// its decisions.
func TestDetectorDecisionDeterminism(t *testing.T) {
	serial := make(map[string]string, len(All))
	for _, s := range All {
		a, err := runOnce(s, true, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runOnce(s, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if a.decisions == "" {
			t.Fatalf("%s: empty decision log from an attacked adaptive run", s.Name)
		}
		if a.decisions != b.decisions {
			t.Fatalf("%s: decision log diverged between identically-seeded runs:\n--- a ---\n%s--- b ---\n%s",
				s.Name, a.decisions, b.decisions)
		}
		serial[s.Name] = a.decisions
	}

	var wg sync.WaitGroup
	logs := make([]string, len(All))
	errs := make([]error, len(All))
	for i, s := range All {
		wg.Add(1)
		go func(i int, s *Scenario) {
			defer wg.Done()
			out, err := runOnce(s, true, true)
			if err != nil {
				errs[i] = err
				return
			}
			logs[i] = out.decisions
		}(i, s)
	}
	wg.Wait()
	for i, s := range All {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if logs[i] != serial[s.Name] {
			t.Errorf("%s: parallel-sweep decision log differs from the serial run", s.Name)
		}
	}
}

func TestLookup(t *testing.T) {
	for _, name := range Names() {
		if _, ok := Lookup(name); !ok {
			t.Fatalf("registry lists %q but Lookup misses it", name)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Fatal("Lookup invented a scenario")
	}
}

// TestPuzzleGateUnderShed forces shed pressure and checks the
// client-puzzle fast-reject: stations that solve (legitimate clients)
// get through, a SYN flood that refuses to pay is rejected on the
// passive path at one hash of cost per segment.
func TestPuzzleGateUnderShed(t *testing.T) {
	sp, err := fault.ParseSpec("seed=41,shed=0.9,puzzle=12")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := experiment.NewTestbed(experiment.ConfigAccounting,
		experiment.Options{Faults: sp})
	if err != nil {
		t.Fatal(err)
	}
	// Force permanent shed pressure so the gate is active from the
	// first SYN (the page-pool mark would need a real memory storm).
	tb.Escort.TCP.Shed = func() bool { return true }
	tb.AddClients(4, "/doc1k")
	for _, c := range tb.Clients {
		c.PuzzleBits = sp.PuzzleBits
	}
	syn := workload.NewSynAttacker(tb.Eng, tb.HubAttach(), "syn",
		lib.IPv4(192, 168, 9, 9), netsim.MAC(0x0200_0000_9999),
		0x0a000001, 1000, 4242)
	syn.Start()

	tb.RunFor(2 * sim.CyclesPerSecond)
	syn.Stop()

	g := tb.Escort.TCP.Puzzle
	if g == nil {
		t.Fatal("puzzle gate not armed by the fault spec")
	}
	if g.Passed == 0 {
		t.Fatal("no solved SYN admitted: legitimate clients locked out")
	}
	if g.Rejected < 1000 {
		t.Fatalf("rejected = %d; the unsolved flood should fail the gate", g.Rejected)
	}
	if got := tb.TotalCompleted(); got == 0 {
		t.Fatal("no legitimate request completed through the gate")
	}
	// The flood must not complete handshakes.
	if tb.Escort.TCP.Completed != tb.TotalCompleted() {
		t.Fatalf("server completed %d conns, clients account for %d",
			tb.Escort.TCP.Completed, tb.TotalCompleted())
	}
	tb.Close()
}

// TestWatchdogShedInteraction overlaps the watchdog with alternating
// shed pressure: the ledger must stay balanced (no double charge
// between the two mechanisms) and penalty-box strikes recorded before
// a shed window must survive it.
func TestWatchdogShedInteraction(t *testing.T) {
	sp, err := fault.ParseSpec("seed=42,watchdog")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := experiment.NewTestbed(experiment.ConfigAccounting,
		experiment.Options{Faults: sp, PenaltyBox: true})
	if err != nil {
		t.Fatal(err)
	}
	// Shed pressure alternates in 250 ms windows, overlapping watchdog
	// scans and CGI containment kills.
	eng := tb.Eng
	tb.Escort.TCP.Shed = func() bool {
		return (eng.Now()/(250*sim.CyclesPerMillisecond))%2 == 1
	}
	tb.AddClients(4, "/doc1k")
	tb.AddCGIAttackers(2)

	before := tb.Escort.K.Ledger().Snapshot(eng.Now())
	tb.RunFor(sim.CyclesPerSecond)

	// Strikes recorded by the first kills...
	cgiIP := lib.IPv4(10, 0, 200, 1)
	mid := tb.Escort.Penalty.Strikes(cgiIP)
	if mid == 0 {
		t.Fatal("no penalty-box strike recorded before the overlap window")
	}
	tb.RunFor(2 * sim.CyclesPerSecond)
	after := tb.Escort.K.Ledger().Snapshot(eng.Now())

	// ...survive the shed windows: the box must never lose state while
	// shedding refuses new connections.
	if end := tb.Escort.Penalty.Strikes(cgiIP); end < mid {
		t.Fatalf("strikes went backwards across shed overlap: %d -> %d", mid, end)
	}
	if tb.Escort.TCP.ShedCount == 0 {
		t.Fatal("shed never fired; the overlap was not exercised")
	}
	if tb.Escort.Paths.Kills == 0 {
		t.Fatal("no path killed; the overlap was not exercised")
	}
	// No double charge: every cycle accounted exactly once even with
	// watchdog scans, containment kills and shed rejections interleaved.
	if d := after.Diff(before); d.Unaccounted() != 0 {
		t.Fatalf("unaccounted = %d of %d measured cycles", d.Unaccounted(), d.Measured)
	}
	tb.Close()
}

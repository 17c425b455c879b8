package scenario

import (
	"bytes"
	"fmt"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/lib"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// settle is the post-attack drain: long enough for in-flight segments
// and abandoned-connection teardown to complete before the ledger and
// leak checks run.
const settle = 100 * sim.CyclesPerMillisecond

// runOutcome is one testbed execution (baseline or attacked).
type runOutcome struct {
	completed    uint64 // client completions inside the window
	detected     bool
	timeToDetect sim.Cycles
	signal       uint64
	falseKills   int
	pathKills    uint64
	csv          string
	decisions    string // adaptive detector's decision log, "" otherwise
}

// RunPolicy executes the scenario twice — a fault-armed baseline
// without the attack, then the attacked run — checks containment, and
// reports the detection-quality metrics. With adaptive set, the
// anomaly detector is armed on top of the scenario's static defenses
// and becomes the detection signal (first escalation = detected). Any
// violated invariant returns an error.
func RunPolicy(s *Scenario, adaptive bool) (*Result, error) {
	base, err := runOnce(s, false, adaptive)
	if err != nil {
		return nil, fmt.Errorf("scenario %s (baseline): %w", s.Name, err)
	}
	atk, err := runOnce(s, true, adaptive)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}

	policy := "static"
	if adaptive {
		policy = "adaptive"
	}
	res := &Result{
		Scenario:          s.Name,
		Class:             s.Class,
		Policy:            policy,
		BaselineCompleted: base.completed,
		AttackedCompleted: atk.completed,
		PathKills:         atk.pathKills,
		Detected:          atk.detected,
		TimeToDetectMs:    float64(atk.timeToDetect) / float64(sim.CyclesPerMillisecond),
		DetectSignal:      atk.signal,
		FalseKills:        atk.falseKills,
		CSV:               atk.csv,
		Decisions:         atk.decisions,
	}
	clients := s.Clients
	if clients > 0 {
		res.FalseKillRate = float64(atk.falseKills) / float64(clients)
	}
	if base.completed > 0 {
		res.GoodputRetained = float64(atk.completed) / float64(base.completed)
	}

	if !atk.detected {
		return res, fmt.Errorf("scenario %s: attack not detected (signal %d, threshold %d)",
			s.Name, atk.signal, s.DetectThreshold)
	}
	if res.GoodputRetained < s.Floor {
		return res, fmt.Errorf("scenario %s: goodput retained %.2f below floor %.2f (%d vs %d)",
			s.Name, res.GoodputRetained, s.Floor, atk.completed, base.completed)
	}
	if res.FalseKillRate > s.MaxFalseKill {
		return res, fmt.Errorf("scenario %s: false-kill rate %.2f exceeds %.2f (%d clients hit)",
			s.Name, res.FalseKillRate, s.MaxFalseKill, atk.falseKills)
	}
	return res, nil
}

// Compare runs the scenario under both policies and checks the
// adaptive policy's regression bounds against the static one: it must
// detect no later (time-to-detect is measured on the shared 10 ms
// sample grid) and must kill no legitimate client.
func Compare(s *Scenario) (static, adaptive *Result, err error) {
	return compareWith(s, RunPolicy)
}

// compareWith is Compare over the given per-policy runner.
func compareWith(s *Scenario, run func(*Scenario, bool) (*Result, error)) (static, adaptive *Result, err error) {
	static, err = run(s, false)
	if err != nil {
		return static, nil, err
	}
	adaptive, err = run(s, true)
	if err != nil {
		return static, adaptive, err
	}
	if adaptive.TimeToDetectMs > static.TimeToDetectMs {
		return static, adaptive, fmt.Errorf(
			"scenario %s: adaptive time-to-detect %.0fms exceeds static %.0fms",
			s.Name, adaptive.TimeToDetectMs, static.TimeToDetectMs)
	}
	if adaptive.FalseKills != 0 {
		return static, adaptive, fmt.Errorf(
			"scenario %s: adaptive policy killed %d legitimate clients",
			s.Name, adaptive.FalseKills)
	}
	return static, adaptive, nil
}

// runOnce builds the testbed, runs warmup + window (with the attack
// when hostile), and asserts the containment invariants. With adaptive
// set the anomaly detector is armed on top of the scenario's spec.
func runOnce(s *Scenario, hostile, adaptive bool) (runOutcome, error) {
	var out runOutcome
	sp, err := fault.ParseSpec(s.Faults)
	if err != nil {
		return out, fmt.Errorf("parse faults: %w", err)
	}
	if adaptive {
		if sp == nil {
			sp = &fault.Spec{Seed: 1}
		}
		sp.Detector = true
	}
	var csv bytes.Buffer
	opts := experiment.Options{
		Faults:          sp,
		Obs:             &obs.Config{MetricsCSV: &csv},
		PenaltyBox:      true,
		SynCapUntrusted: s.SynCapUntrusted,
		FSCacheBudget:   s.FSCacheBudget,
	}
	if s.ExtraDocs != nil {
		opts.ExtraDocs = s.ExtraDocs()
	}
	tb, err := experiment.NewTestbed(experiment.ConfigAccounting, opts)
	if err != nil {
		return out, fmt.Errorf("testbed: %w", err)
	}
	clients := s.Clients
	if clients == 0 {
		clients = 6
	}
	doc := s.Doc
	if doc == "" {
		doc = "/doc1k"
	}
	tb.AddClients(clients, doc)
	if sp != nil && sp.PuzzleBits > 0 {
		// Legitimate clients pay the puzzle; attackers do not — that
		// asymmetry is the gate's whole mechanism.
		for _, c := range tb.Clients {
			c.PuzzleBits = sp.PuzzleBits
		}
	}

	ledger := tb.Escort.K.Ledger()
	before := ledger.Snapshot(tb.Eng.Now())
	tb.RunFor(s.Warmup)

	// Under the adaptive policy the detector's escalation count is the
	// detection signal: the first rung taken against any source marks
	// the attack as noticed.
	detect, threshold := s.Detect, s.DetectThreshold
	if adaptive {
		detect = func(tb *experiment.Testbed) uint64 {
			if tb.Escort.Detector == nil {
				return 0
			}
			return tb.Escort.Detector.Escalations
		}
		threshold = 1
	}

	baseSignal := uint64(0)
	if detect != nil {
		baseSignal = detect(tb)
	}
	baseCompleted := tb.TotalCompleted()
	attackStart := tb.Eng.Now()

	var attackers []workload.Attacker
	if hostile {
		attackers = s.Attack(tb)
		if m := tb.Escort.Obs.Metrics; m != nil && detect != nil {
			// Detection rides the 10 ms per-owner metrics cadence: the
			// first sample where the signal clears the threshold marks
			// time-to-detect. (The detector subscribed when the server
			// was built, so its escalations land before this subscriber
			// runs on the same tick.)
			m.Subscribe(func(smp obs.Sample) {
				if out.detected {
					return
				}
				if detect(tb)-baseSignal >= threshold {
					out.detected = true
					out.timeToDetect = smp.At - attackStart
				}
			})
		}
	}

	tb.RunFor(s.Window)
	out.completed = tb.TotalCompleted() - baseCompleted
	if detect != nil {
		out.signal = detect(tb) - baseSignal
	}

	// Teardown-quiescence contract: Stop cancels every attacker timer.
	for i, a := range attackers {
		a.Stop()
		if n := a.PendingEvents(); n != 0 {
			return out, fmt.Errorf("attacker %d holds %d pending events after Stop", i, n)
		}
	}
	for _, c := range tb.Clients {
		c.Stop()
	}
	tb.RunFor(settle)

	// Containment invariants 1 and 2: the ledger stayed balanced under
	// attack, and killed attack paths gave everything back.
	if err := ledger.CheckContainment(before, ledger.Snapshot(tb.Eng.Now())); err != nil {
		return out, err
	}

	// False kills: legitimate clients that ended the run with
	// penalty-box strikes. Client addressing mirrors AddClients.
	out.pathKills = tb.Escort.Paths.Kills
	if pb := tb.Escort.Penalty; pb != nil {
		for i := 0; i < clients; i++ {
			ip := lib.IPv4(10, 0, 1+byte(i/250), byte(i%250)+1)
			if pb.Strikes(ip) > 0 {
				out.falseKills++
			}
		}
	}

	if det := tb.Escort.Detector; det != nil {
		out.decisions = string(det.DecisionLog())
	}

	// Containment invariant 3: quiescence after Close.
	tb.Close()
	if p := tb.Eng.Pending(); p > 1000 {
		return out, fmt.Errorf("engine not quiescent after Close: %d pending events", p)
	}
	out.csv = csv.String()
	return out, nil
}

// Package scenario is the attack-scenario library: a registry binding
// attack workloads to the server configuration under test, the
// expected-containment assertions, and detection-quality metrics
// computed from the per-owner metrics stream.
//
// Each Scenario pairs one attack class (internal/workload) with an
// optional fault/degradation spec (internal/fault grammar), a
// server-side detection signal, and acceptance bounds. Running one
// produces a Result with three detection-quality metrics:
//
//   - time-to-detect: virtual time from attack start until the
//     detection signal crosses its threshold, measured on the same
//     10 ms cadence as the per-owner metrics samples;
//   - false-kill rate: the fraction of legitimate clients that ended
//     the run with penalty-box strikes;
//   - goodput retained: completed legitimate requests under attack
//     divided by the same workload's fault-free baseline.
//
// The harness replays the chaos-matrix invariants after every run
// (balanced ledger, no dead-owner retention, engine quiescence) plus
// the attacker-teardown contract (PendingEvents == 0 after Stop), so
// a scenario passing means containment, not just survival. Everything
// is seeded and byte-deterministic: two runs of the same scenario
// produce identical metrics CSV bytes.
package scenario

import (
	"bytes"

	"repro/internal/escort"
	"repro/internal/experiment"
	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Scenario binds one attack class to a server configuration, a
// detection signal, and acceptance bounds.
type Scenario struct {
	// Name is the registry key (escort-bench -scenario NAME); Class
	// names the attack family; Desc is one catalog line.
	Name  string
	Class string
	Desc  string

	// Faults is a fault.Spec source string (must carry seed=); it
	// selects the degradation mechanisms the scenario arms (reaper,
	// shed, puzzle, watchdog) alongside any fault climate.
	Faults string

	// Workload shape: Clients best-effort clients requesting Doc.
	Clients int
	Doc     string

	// Server shape overrides (zero: testbed defaults).
	SynCapUntrusted int
	FSCacheBudget   int
	ExtraDocs       func() map[string][]byte

	// Attack attaches and starts the hostile actors; the harness stops
	// them at the end of the measurement window and asserts quiescence.
	Attack func(tb *experiment.Testbed) []workload.Attacker

	// Detect reads the cumulative server-side detection signal;
	// detection is declared when it rises DetectThreshold above its
	// pre-attack reading.
	Detect          func(tb *experiment.Testbed) uint64
	DetectThreshold uint64

	// Warmup runs before the attack starts; Window is the attacked
	// measurement period (also the baseline's).
	Warmup sim.Cycles
	Window sim.Cycles

	// Floor is the minimum goodput retained under attack
	// (attacked/baseline completions); MaxFalseKill bounds the
	// legitimate-client false-kill rate.
	Floor        float64
	MaxFalseKill float64
}

// Result is one scenario run's report card.
type Result struct {
	Scenario string `json:"scenario"`
	Class    string `json:"class"`
	// Policy names the defense policy the run was under: "static"
	// (the scenario's fixed-threshold spec) or "adaptive" (the anomaly
	// detector armed on top of it).
	Policy string `json:"policy"`

	// Containment facts.
	BaselineCompleted uint64 `json:"baseline_completed"`
	AttackedCompleted uint64 `json:"attacked_completed"`
	PathKills         uint64 `json:"path_kills"`

	// The three detection-quality metrics.
	Detected        bool    `json:"detected"`
	TimeToDetectMs  float64 `json:"time_to_detect_ms"`
	DetectSignal    uint64  `json:"detect_signal"`
	FalseKills      int     `json:"false_kills"`
	FalseKillRate   float64 `json:"false_kill_rate"`
	GoodputRetained float64 `json:"goodput_retained"`

	// CSV is the attacked run's per-owner metrics export — the
	// byte-determinism witness. Decisions is the adaptive detector's
	// decision-log CSV (empty under the static policy): the determinism
	// witness for the detector's demote/shed/kill choices.
	CSV       string `json:"-"`
	Decisions string `json:"-"`
}

// Attacker addressing: hostile stations live on the hub (the
// untrusted side of the Figure 7 topology), one address per class so
// penalty-box strikes are attributable.
var (
	slowIP    = lib.IPv4(192, 168, 7, 7)
	scanIP    = lib.IPv4(192, 168, 7, 8)
	bruteIP   = lib.IPv4(192, 168, 7, 9)
	floodIP   = lib.IPv4(192, 168, 7, 10)
	thrashIP  = lib.IPv4(192, 168, 7, 11)
	slowMAC   = netsim.MAC(0x0200_0000_7707)
	scanMAC   = netsim.MAC(0x0200_0000_7708)
	bruteMAC  = netsim.MAC(0x0200_0000_7709)
	floodMAC  = netsim.MAC(0x0200_0000_770a)
	thrashMAC = netsim.MAC(0x0200_0000_770b)
)

// thrashDocs is the memory-DoS document set: 16 files of 8 KB against
// a 32 KB cache budget, so the thrasher's cycle never fits and every
// hostile fetch evicts legitimate cache state.
func thrashDocs() map[string][]byte {
	docs := make(map[string][]byte, 16)
	names := []string{"/t00", "/t01", "/t02", "/t03", "/t04", "/t05", "/t06", "/t07",
		"/t08", "/t09", "/t10", "/t11", "/t12", "/t13", "/t14", "/t15"}
	for i, name := range names {
		docs[name] = bytes.Repeat([]byte{byte('a' + i)}, 8*1024)
	}
	return docs
}

func thrashDocNames() []string {
	return []string{"/t00", "/t01", "/t02", "/t03", "/t04", "/t05", "/t06", "/t07",
		"/t08", "/t09", "/t10", "/t11", "/t12", "/t13", "/t14", "/t15"}
}

// All is the scenario registry, in catalog order.
var All = []*Scenario{
	{
		Name:  "slowloris",
		Class: "slowloris",
		Desc: "partial-request holders trickling one byte per period; " +
			"caught by the session reaper's cycles-per-byte asymmetry",
		Faults:  "seed=31,reaper=250ms",
		Clients: 6,
		Doc:     "/doc1k",
		Attack: func(tb *experiment.Testbed) []workload.Attacker {
			a := workload.NewSlowAttacker(tb.Eng, tb.HubAttach(), "slowloris",
				slowIP, slowMAC, escort.ServerIP, 16, 3101)
			a.Start()
			return []workload.Attacker{a}
		},
		Detect: func(tb *experiment.Testbed) uint64 {
			if tb.Escort.Reaper == nil {
				return 0
			}
			return tb.Escort.Reaper.Demotions + tb.Escort.Reaper.Kills
		},
		DetectThreshold: 1,
		Warmup:          500 * sim.CyclesPerMillisecond,
		Window:          2 * sim.CyclesPerSecond,
		Floor:           0.8,
		MaxFalseKill:    0,
	},
	{
		Name:  "portscan",
		Class: "portscan",
		Desc: "sequential SYN sweep across 1..1024; the no-listener demux " +
			"counter is the signature",
		Faults:  "seed=32",
		Clients: 6,
		Doc:     "/doc1k",
		Attack: func(tb *experiment.Testbed) []workload.Attacker {
			a := workload.NewPortScanner(tb.Eng, tb.HubAttach(), "portscan",
				scanIP, scanMAC, escort.ServerIP, 2000, 3201)
			a.Start()
			return []workload.Attacker{a}
		},
		Detect: func(tb *experiment.Testbed) uint64 {
			return tb.Escort.TCP.NoListener
		},
		DetectThreshold: 200,
		Warmup:          500 * sim.CyclesPerMillisecond,
		Window:          2 * sim.CyclesPerSecond,
		Floor:           0.7,
		MaxFalseKill:    0,
	},
	{
		Name:  "bruteforce",
		Class: "bruteforce",
		Desc: "scripted credential stuffing against /login; the auth-failure " +
			"counter races ahead of legitimate traffic",
		Faults:  "seed=33",
		Clients: 6,
		Doc:     "/doc1k",
		Attack: func(tb *experiment.Testbed) []workload.Attacker {
			a := workload.NewBruteForcer(tb.Eng, tb.HubAttach(), "bruteforce",
				bruteIP, bruteMAC, escort.ServerIP, 200, 3301)
			a.Start()
			return []workload.Attacker{a}
		},
		Detect: func(tb *experiment.Testbed) uint64 {
			return tb.Escort.HTTP.AuthFailures
		},
		DetectThreshold: 20,
		Warmup:          500 * sim.CyclesPerMillisecond,
		Window:          2 * sim.CyclesPerSecond,
		Floor:           0.7,
		MaxFalseKill:    0,
	},
	{
		Name:  "ackfinflood",
		Class: "ackfinflood",
		Desc: "ACK|FIN segments matching no connection; bounded demux cost, " +
			"counted as strays",
		Faults:  "seed=34",
		Clients: 6,
		Doc:     "/doc1k",
		Attack: func(tb *experiment.Testbed) []workload.Attacker {
			a := workload.NewAckFlooder(tb.Eng, tb.HubAttach(), "ackfinflood",
				floodIP, floodMAC, escort.ServerIP, 3000, 3401)
			a.Start()
			return []workload.Attacker{a}
		},
		Detect: func(tb *experiment.Testbed) uint64 {
			return tb.Escort.TCP.Strays
		},
		DetectThreshold: 100,
		Warmup:          500 * sim.CyclesPerMillisecond,
		Window:          2 * sim.CyclesPerSecond,
		Floor:           0.7,
		MaxFalseKill:    0,
	},
	{
		Name:  "memthrash",
		Class: "memthrash",
		Desc: "parallel fetches cycling a document set larger than the FS " +
			"cache; the miss counter is the signature, shed+puzzle stand armed",
		Faults:        "seed=35,shed=0.9,puzzle=12",
		Clients:       6,
		Doc:           "/doc1k",
		FSCacheBudget: 32 * 1024,
		ExtraDocs:     thrashDocs,
		Attack: func(tb *experiment.Testbed) []workload.Attacker {
			a := workload.NewMemThrasher(tb.Eng, tb.HubAttach(), "memthrash",
				thrashIP, thrashMAC, escort.ServerIP, thrashDocNames(), 6, 3501)
			a.Start()
			return []workload.Attacker{a}
		},
		Detect: func(tb *experiment.Testbed) uint64 {
			return tb.Escort.FS.Misses
		},
		DetectThreshold: 50,
		Warmup:          500 * sim.CyclesPerMillisecond,
		Window:          2 * sim.CyclesPerSecond,
		Floor:           0.45,
		MaxFalseKill:    0,
	},
}

// Lookup returns the registered scenario by name.
func Lookup(name string) (*Scenario, bool) {
	for _, s := range All {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Names lists the registry in catalog order.
func Names() []string {
	names := make([]string, len(All))
	for i, s := range All {
		names[i] = s.Name
	}
	return names
}

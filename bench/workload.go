package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/escort"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	actors "repro/internal/workload"
)

// The paper's methodology (§4.1.2): a warm-up, then a ten-second
// average. Each phase is one RunFor call; slicing the window into many
// calls changes the simulated output (see README, open findings).
const (
	warmUp = sim.CyclesPerSecond
	window = 10 * sim.CyclesPerSecond
)

// workload is one set of inputs the benchmark runs; BENCHMARK.json and
// README.md record why each exists.
type workload struct {
	name string
	// testbed is the Figure 7 set-up under load; nil for the scenario
	// library.
	testbed *testbedSpec
}

var workloads = []workload{
	{"besteffort-1b", &testbedSpec{config: experiment.ConfigAccounting, clients: 64, doc: experiment.Doc1B.Name}},
	{"bulk-10k-pd", &testbedSpec{config: experiment.ConfigAccountingPD, clients: 64, doc: experiment.Doc10K.Name}},
	{"synflood-10k", &testbedSpec{config: experiment.ConfigAccounting, clients: 64, doc: experiment.Doc1B.Name, synRate: 10_000}},
	{"scenarios-adaptive", nil},
}

// point runs one measurement point: it builds its inputs from seed,
// times set-up and the timed phases through m, and returns the point's
// simulated digest and the legitimate connections completed in the
// timed phases.
func (w workload) point(m *meter, seed uint64) (digest any, conns uint64, err error) {
	if w.testbed != nil {
		return w.testbed.point(m, seed)
	}
	return scenarioPoint(m, seed)
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// deriveSeed shifts a base seed by the run seed. Seed 1 leaves every
// base unchanged, so a seed-1 run reproduces Testbed.AddClients,
// Testbed.AddSynAttacker and the scenario library exactly.
func deriveSeed(base, seed uint64) uint64 { return base + (seed-1)<<32 }

// testbedSpec is a Figure 7 testbed under closed-loop client load.
type testbedSpec struct {
	config  experiment.Config
	clients int
	doc     string
	synRate uint64 // untrusted SYN flood rate; zero for none
}

// build creates the testbed and attaches every station, mirroring
// Testbed.AddClients and Testbed.AddSynAttacker with seeds derived
// from the run seed.
func (s *testbedSpec) build(seed uint64) (*experiment.Testbed, error) {
	var opt experiment.Options
	if s.synRate > 0 {
		opt.SynCapUntrusted = 64
	}
	tb, err := experiment.NewTestbed(s.config, opt)
	if err != nil {
		return nil, err
	}
	for idx := 0; idx < s.clients; idx++ {
		ip := lib.IPv4(10, 0, 1+byte(idx/250), byte(idx%250)+1)
		mac := netsim.MAC(0x0200_0000_1000 + uint64(idx))
		c := actors.NewClient(tb.Eng, tb.SwitchAttach(), "client"+strconv.Itoa(idx),
			ip, mac, escort.ServerIP, s.doc, deriveSeed(uint64(idx)+1, seed))
		c.Think = experiment.ClientThink
		tb.Clients = append(tb.Clients, c)
		c.Start()
	}
	if s.synRate > 0 {
		tb.Syn = actors.NewSynAttacker(tb.Eng, tb.HubAttach(), "syn-attacker",
			lib.IPv4(192, 168, 9, 9), netsim.MAC(0x0200_0000_9999),
			escort.ServerIP, s.synRate, deriveSeed(4242, seed))
		tb.Syn.Start()
	}
	return tb, nil
}

func (s *testbedSpec) point(m *meter, seed uint64) (any, uint64, error) {
	var tb *experiment.Testbed
	err := m.setupPhase("NewTestbed", func() (err error) {
		tb, err = s.build(seed)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	defer tb.Close()
	ledger := tb.Escort.K.Ledger()
	before := ledger.Snapshot(tb.Eng.Now())
	var afterWarm uint64
	m.timedPhase("warm-up RunFor", func() {
		tb.RunFor(warmUp)
		afterWarm = tb.TotalCompleted()
	})
	m.timedPhase("window RunFor", func() { tb.RunFor(window) })
	d := countTestbed(tb)
	d.WindowCompleted = tb.TotalCompleted() - afterWarm
	d.LedgerUnaccounted = ledger.Snapshot(tb.Eng.Now()).Diff(before).Unaccounted()
	return d, tb.TotalCompleted(), nil
}

// simCounts is a testbed point's simulated output: the digest checked
// against golden.json and the traced run's exact work counts.
type simCounts struct {
	WindowCompleted   uint64 `json:"window_completed"`
	ServerRxFrames    uint64 `json:"server_rx_frames"`
	ServerTxFrames    uint64 `json:"server_tx_frames"`
	TCPEstablished    uint64 `json:"tcp_established"`
	TCPCompleted      uint64 `json:"tcp_completed"`
	TCPRetransmits    uint64 `json:"tcp_retransmits"`
	TCPStrays         uint64 `json:"tcp_strays"`
	ListenerAccepted  uint64 `json:"listener_accepted"`
	ListenerDropped   uint64 `json:"listener_dropped_syn"`
	PathKills         uint64 `json:"path_kills"`
	PathDemuxRejects  uint64 `json:"path_demux_rejects"`
	HTTPRequests      uint64 `json:"http_requests"`
	LedgerUnaccounted int64  `json:"ledger_unaccounted"`
}

func countTestbed(tb *experiment.Testbed) simCounts {
	srv := tb.Escort
	d := simCounts{
		ServerRxFrames:   srv.NIC.RxFrames,
		ServerTxFrames:   srv.NIC.TxFrames,
		TCPEstablished:   srv.TCP.Established,
		TCPCompleted:     srv.TCP.Completed,
		TCPRetransmits:   srv.TCP.Retransmits,
		TCPStrays:        srv.TCP.Strays,
		PathKills:        srv.Paths.Kills,
		PathDemuxRejects: srv.Paths.DemuxRejects,
		HTTPRequests:     srv.HTTP.Requests,
	}
	for _, l := range srv.TCP.Listeners() {
		d.ListenerAccepted += l.Accepted
		d.ListenerDropped += l.DroppedSyn
	}
	return d
}

// scenarioDigest is one scenario's simulated output: every Result
// field plus hashes of the metrics CSV and the decision log.
type scenarioDigest struct {
	scenario.Result
	CSVSHA256       string `json:"csv_sha256"`
	DecisionsSHA256 string `json:"decisions_sha256"`
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// scenarios returns the library with every seed= value derived from
// the run seed.
func scenarios(seed uint64) ([]*scenario.Scenario, error) {
	out := make([]*scenario.Scenario, len(scenario.All))
	for i, s := range scenario.All {
		c := *s
		entries := strings.Split(c.Faults, ",")
		for j, e := range entries {
			if v, ok := strings.CutPrefix(e, "seed="); ok {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("scenario %s: %w", c.Name, err)
				}
				entries[j] = "seed=" + strconv.FormatUint(deriveSeed(n, seed), 10)
			}
		}
		c.Faults = strings.Join(entries, ",")
		out[i] = &c
	}
	return out, nil
}

// buildScenarioTestbed repeats the testbed build scenario.RunPolicy
// makes for the adaptive policy, so set-up can be timed on its own.
func buildScenarioTestbed(s *scenario.Scenario) (*experiment.Testbed, error) {
	sp, err := fault.ParseSpec(s.Faults)
	if err != nil {
		return nil, err
	}
	if sp == nil {
		sp = &fault.Spec{Seed: 1}
	}
	sp.Detector = true
	opts := experiment.Options{
		Faults:          sp,
		Obs:             &obs.Config{MetricsCSV: &bytes.Buffer{}},
		PenaltyBox:      true,
		SynCapUntrusted: s.SynCapUntrusted,
		FSCacheBudget:   s.FSCacheBudget,
	}
	if s.ExtraDocs != nil {
		opts.ExtraDocs = s.ExtraDocs()
	}
	tb, err := experiment.NewTestbed(experiment.ConfigAccounting, opts)
	if err != nil {
		return nil, err
	}
	clients, doc := s.Clients, s.Doc
	if clients == 0 {
		clients = 6
	}
	if doc == "" {
		doc = "/doc1k"
	}
	tb.AddClients(clients, doc)
	for _, c := range tb.Clients {
		c.PuzzleBits = sp.PuzzleBits
	}
	return tb, nil
}

// scenarioPoint is one pass of scenario.RunPolicy(s, true) over the
// library. Its connections are the legitimate completions of every
// baseline and attacked window.
func scenarioPoint(m *meter, seed uint64) (any, uint64, error) {
	library, err := scenarios(seed)
	if err != nil {
		return nil, 0, err
	}
	err = m.setupPhase("NewTestbed x5", func() error {
		for _, s := range library {
			tb, err := buildScenarioTestbed(s)
			if err != nil {
				return fmt.Errorf("scenario %s: %w", s.Name, err)
			}
			tb.Close()
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	digests := make([]scenarioDigest, 0, len(library))
	var conns uint64
	for _, s := range library {
		var r *scenario.Result
		m.timedPhase("RunPolicy "+s.Name, func() { r, err = scenario.RunPolicy(s, true) })
		if err != nil {
			return nil, 0, err
		}
		conns += r.BaselineCompleted + r.AttackedCompleted
		digests = append(digests, scenarioDigest{Result: *r, CSVSHA256: sha(r.CSV), DecisionsSHA256: sha(r.Decisions)})
	}
	return digests, conns, nil
}

var workCountNames = []string{
	"netsim.server_rx_frames", "netsim.server_tx_frames",
	"proto.tcp.established", "proto.tcp.retransmits", "proto.tcp.strays",
	"proto.tcp.syn_accept_ratio", "path.kills", "path.demux_rejects",
	"proto.http.requests", "policy.escalations",
}

// workCounts are the traced run's exact simulated work counts for one
// point's digest. The scenario harness exposes only kills and the
// detector's decision log (one row per rung taken), so the scenario
// workload's other counts read zero.
func workCounts(digest any) map[string]float64 {
	out := make(map[string]float64, len(workCountNames))
	for _, name := range workCountNames {
		out[name] = 0
	}
	switch d := digest.(type) {
	case simCounts:
		out["netsim.server_rx_frames"] = float64(d.ServerRxFrames)
		out["netsim.server_tx_frames"] = float64(d.ServerTxFrames)
		out["proto.tcp.established"] = float64(d.TCPEstablished)
		out["proto.tcp.retransmits"] = float64(d.TCPRetransmits)
		out["proto.tcp.strays"] = float64(d.TCPStrays)
		if n := d.ListenerAccepted + d.ListenerDropped; n > 0 {
			out["proto.tcp.syn_accept_ratio"] = float64(d.ListenerAccepted) / float64(n)
		}
		out["path.kills"] = float64(d.PathKills)
		out["path.demux_rejects"] = float64(d.PathDemuxRejects)
		out["proto.http.requests"] = float64(d.HTTPRequests)
	case []scenarioDigest:
		for _, s := range d {
			out["path.kills"] += float64(s.PathKills)
			if s.Decisions != "" {
				out["policy.escalations"] += float64(strings.Count(s.Decisions, "\n") - 1)
			}
		}
	}
	return out
}

// Package experiment reproduces the paper's evaluation (§4): the
// Figure 7 testbed, the four server configurations under the §4.1.2
// loads, and a generator for every table and figure. Scale parameters
// (warm-up, measurement window, client counts) are explicit so the
// benchmarks can run reduced versions while cmd/escort-bench runs
// paper-scale ones.
package experiment

import (
	"bytes"
	"fmt"
	"maps"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/escort"
	"repro/internal/fault"
	"repro/internal/lib"
	"repro/internal/linuxsim"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ObsFactory builds an observability config for one testbed run; the
// label identifies the run (e.g. "fig8-doc1-Accounting-c8") so sinks
// can be routed to per-run files. Returning nil disables observability
// for that run.
type ObsFactory func(label string) *obs.Config

// Config names the measured configurations of §4.1.1.
type Config string

// The four configurations.
const (
	ConfigScout        Config = "Scout"
	ConfigAccounting   Config = "Accounting"
	ConfigAccountingPD Config = "Accounting_PD"
	ConfigLinux        Config = "Linux"
)

// AllConfigs includes the Linux baseline.
var AllConfigs = []Config{ConfigLinux, ConfigScout, ConfigAccounting, ConfigAccountingPD}

// Documents of §4.1.2.
var (
	Doc1B  = DocSpec{Name: "/doc1", Size: 1, Label: "1 byte"}
	Doc1K  = DocSpec{Name: "/doc1k", Size: 1024, Label: "1 KByte"}
	Doc10K = DocSpec{Name: "/doc10k", Size: 10240, Label: "10 KByte"}
)

// DocSpec describes one test document.
type DocSpec struct {
	Name  string
	Size  int
	Label string
}

// AllDocs is the §4.1.2 document set, smallest first.
var AllDocs = []DocSpec{Doc1B, Doc1K, Doc10K}

// docSet holds the document bodies, built once: every testbed shares
// them, and neither server ever writes a body it serves.
var docSet = func() map[string][]byte {
	docs := map[string][]byte{}
	for _, d := range AllDocs {
		docs[d.Name] = bytes.Repeat([]byte("x"), d.Size)
	}
	return docs
}()

// Docs returns the document set: a fresh map, which NewTestbed extends
// with Options.ExtraDocs, over the shared bodies.
func Docs() map[string][]byte { return maps.Clone(docSet) }

const mbps100 = 100_000_000

// Testbed is the Figure 7 setup: server, QoS receiver and SYN attacker
// on a hub; clients and CGI attackers on a switch bridged to the hub.
type Testbed struct {
	Eng    *sim.Engine
	Model  *cost.Model
	Hub    *netsim.Hub
	Switch *netsim.Switch

	// Inj is the network fault injector when Options.Faults configured
	// one; hubAt/swAt are the attach points workloads and servers use
	// (the injector-wrapped segments, or the raw ones when fault-free).
	Inj   *fault.NetInjector
	hubAt netsim.Attacher
	swAt  netsim.Attacher

	Config Config
	Escort *escort.Server
	Linux  *linuxsim.Server

	Clients []*workload.Client
	CGI     []*workload.CGIAttacker
	Syn     *workload.Flooder
	QoS     *workload.QoSReceiver
}

// Options tunes the testbed.
type Options struct {
	// SynCapUntrusted bounds the untrusted listener (default 64 when a
	// SYN attacker is present; the policy of §4.4.1).
	SynCapUntrusted int
	// QoSRateBps enables the stream service.
	QoSRateBps int
	// PathFinder enables pattern-based demultiplexing.
	PathFinder bool
	// Model overrides the cost model (ablation studies).
	Model *cost.Model
	// Scheduler overrides the thread scheduler (ablation studies).
	Scheduler string
	// PenaltyBox routes previously-offending sources to a demoted
	// passive path (§4.4.4); the attack scenarios assert strike
	// bookkeeping through it.
	PenaltyBox bool
	// FSCacheBudget overrides the server's block-cache budget in bytes
	// (zero: the server default). The memory-thrash scenario shrinks it
	// below its document set so every hostile fetch evicts.
	FSCacheBudget int
	// ExtraDocs adds documents beyond the standard three (§4.1.2 set).
	ExtraDocs map[string][]byte
	// Obs selects observability sinks for the Escort server (ignored
	// for the Linux baseline, which has no Escort kernel to observe).
	Obs *obs.Config
	// Faults configures deterministic fault injection: the network
	// climate wraps both segments' attach points, the failpoints go to
	// the server's kernel, and the defense entries become the server's
	// Options.Defense.
	Faults *fault.Spec
}

// NewTestbed builds the topology and the server of the given config.
func NewTestbed(cfg Config, opt Options) (*Testbed, error) {
	eng := sim.New()
	hub := netsim.NewHub(eng, mbps100, 3000)
	sw := netsim.NewSwitch(eng, mbps100, 3000)
	netsim.NewBridge("uplink", hub, sw, netsim.MAC(0x0200_0000_00FE), netsim.MAC(0x0200_0000_00FF))

	model := opt.Model
	if model == nil {
		model = cost.Default()
	}
	tb := &Testbed{Eng: eng, Model: model, Hub: hub, Switch: sw, Config: cfg}
	tb.Inj = opt.Faults.NewNetInjector(eng)
	tb.hubAt, tb.swAt = netsim.Attacher(hub), netsim.Attacher(sw)
	if tb.Inj != nil {
		// The bridge stays on the raw segments: faults strike at edge
		// NICs (stations and server), not inside the infrastructure.
		tb.hubAt = tb.Inj.WrapAttacher(hub)
		tb.swAt = tb.Inj.WrapAttacher(sw)
	}
	docs := Docs()
	for name, content := range opt.ExtraDocs {
		docs[name] = content
	}
	if cfg == ConfigLinux {
		tb.Linux = linuxsim.New(eng, tb.Model, tb.hubAt, escort.ServerIP, escort.ServerMAC, docs)
		return tb, nil
	}
	var def fault.Defense
	if opt.Faults != nil {
		def = opt.Faults.Defense
	}
	var kind escort.Kind
	switch cfg {
	case ConfigScout:
		kind = escort.KindScout
	case ConfigAccounting:
		kind = escort.KindAccounting
	case ConfigAccountingPD:
		kind = escort.KindAccountingPD
	default:
		return nil, fmt.Errorf("experiment: unknown config %q", cfg)
	}
	srv, err := escort.NewServer(eng, tb.Model, tb.hubAt, escort.Options{
		Kind:            kind,
		Docs:            docs,
		SynCapUntrusted: opt.SynCapUntrusted,
		QoSRateBps:      opt.QoSRateBps,
		Scheduler:       opt.Scheduler,
		PathFinder:      opt.PathFinder,
		PenaltyBox:      opt.PenaltyBox,
		FSCacheBudget:   opt.FSCacheBudget,
		Obs:             opt.Obs,
		Faults:          opt.Faults,
		Defense:         def,
	})
	if err != nil {
		return nil, err
	}
	tb.Escort = srv
	if tb.Inj != nil {
		tb.Inj.BindObs(srv.K.Tracer(), srv.Obs.Faults)
	}
	return tb, nil
}

// Close unwinds kernel threads and flushes any observability sinks.
func (tb *Testbed) Close() {
	if tb.Escort != nil {
		tb.Escort.Stop()
		tb.Escort.Obs.Close()
	}
}

// HubAttach returns the hub-side attach point (injector-wrapped when
// network faults are configured) — the untrusted segment attackers
// join in the Figure 7 topology.
func (tb *Testbed) HubAttach() netsim.Attacher { return tb.hubAt }

// SwitchAttach returns the switch-side attach point, the trusted
// segment the best-effort clients live on.
func (tb *Testbed) SwitchAttach() netsim.Attacher { return tb.swAt }

// ClientThink models the per-request client-side turnaround of the
// paper's PentiumPro stations (request construction, their own kernel's
// TCP work): it is what makes the Figure 8 curves climb with client
// count instead of a single client saturating the server.
const ClientThink = 8 * sim.CyclesPerMillisecond

// The station addressing plan. Client i is 10.0.(1+i/250).(i%250+1)
// with MAC clientMAC+i; CGI attacker i is 10.0.(200+i/250).(i%250+1)
// with MAC cgiMAC+i. maxClients and maxCGI are the counts the plan
// holds: one station more and its MAC is the next block's first (CGI
// attacker #0's, the SYN attacker's), long before the IPs run out.
const (
	clientMAC = 0x0200_0000_1000
	cgiMAC    = 0x0200_0000_8000
	synMAC    = 0x0200_0000_9999

	maxClients = cgiMAC - clientMAC
	maxCGI     = synMAC - cgiMAC
)

// clientAddr is client idx's IP and MAC.
func clientAddr(idx int) (uint32, netsim.MAC) {
	return lib.IPv4(10, 0, 1+byte(idx/250), byte(idx%250)+1), netsim.MAC(clientMAC + uint64(idx))
}

// cgiAddr is CGI attacker idx's IP and MAC.
func cgiAddr(idx int) (uint32, netsim.MAC) {
	return lib.IPv4(10, 0, 200+byte(idx/250), byte(idx%250)+1), netsim.MAC(cgiMAC + uint64(idx))
}

// AddClients attaches n best-effort clients (trusted subnet, on the
// switch) requesting doc.
func (tb *Testbed) AddClients(n int, doc string) {
	for i := 0; i < n; i++ {
		idx := len(tb.Clients)
		ip, mac := clientAddr(idx)
		c := workload.NewClient(tb.Eng, tb.swAt, fmt.Sprintf("client%d", idx),
			ip, mac, escort.ServerIP, doc, uint64(idx)+1)
		c.Think = ClientThink
		tb.Clients = append(tb.Clients, c)
		c.Start()
	}
}

// AddSynAttacker attaches the SYN flood source (untrusted subnet, on
// the hub) at the given rate.
func (tb *Testbed) AddSynAttacker(rate uint64) {
	tb.Syn = workload.NewSynAttacker(tb.Eng, tb.hubAt, "syn-attacker",
		lib.IPv4(192, 168, 9, 9), netsim.MAC(synMAC),
		escort.ServerIP, rate, 4242)
	tb.Syn.Start()
}

// AddCGIAttackers attaches n CGI attackers (on the switch, one attack
// per second each).
func (tb *Testbed) AddCGIAttackers(n int) {
	for i := 0; i < n; i++ {
		idx := len(tb.CGI)
		ip, mac := cgiAddr(idx)
		a := workload.NewCGIAttacker(tb.Eng, tb.swAt, fmt.Sprintf("cgi%d", idx),
			ip, mac, escort.ServerIP, 7000+uint64(idx))
		tb.CGI = append(tb.CGI, a)
		a.Start()
	}
}

// AddQoSReceiver attaches the stream receiver (on the hub).
func (tb *Testbed) AddQoSReceiver() {
	tb.QoS = workload.NewQoSReceiver(tb.Eng, tb.hubAt, "qos-receiver",
		lib.IPv4(10, 0, 0, 2), netsim.MAC(0x0200_0000_0002), escort.ServerIP, 5)
	tb.QoS.Start()
}

// RunFor advances the whole simulation by d cycles.
func (tb *Testbed) RunFor(d sim.Cycles) {
	if tb.Escort != nil {
		tb.Escort.K.Run(tb.Eng.Now() + d)
		return
	}
	tb.Eng.Drain(tb.Eng.Now() + d)
}

// TotalCompleted sums client completions.
func (tb *Testbed) TotalCompleted() uint64 {
	var total uint64
	for _, c := range tb.Clients {
		total += c.Completed
	}
	return total
}

// snapshot is the ledger's snapshot now; zero for Linux, which has no
// ledger.
func (tb *Testbed) snapshot() core.Snapshot {
	if tb.Escort == nil {
		return core.Snapshot{}
	}
	return tb.Escort.K.Ledger().Snapshot(tb.Eng.Now())
}

// MeasureRate runs a warm-up then a measurement window and returns the
// best-effort connection rate (connections/second), the paper's
// ten-second-average methodology.
func (tb *Testbed) MeasureRate(warm, window sim.Cycles) float64 {
	tb.RunFor(warm)
	before := tb.TotalCompleted()
	tb.RunFor(window)
	delta := tb.TotalCompleted() - before
	return float64(delta) / window.Seconds()
}

package escort

import (
	"bytes"
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/path"
	"repro/internal/sim"
	"repro/internal/workload"
)

const mbps100 = 100_000_000

type bed struct {
	eng *sim.Engine
	hub *netsim.Hub
	srv *Server
}

func docs() map[string][]byte {
	return map[string][]byte{
		"/doc1":   []byte("X"),
		"/doc1k":  bytes.Repeat([]byte("k"), 1024),
		"/doc10k": bytes.Repeat([]byte("T"), 10240),
	}
}

func newBed(t *testing.T, kind Kind, opt Options) *bed {
	t.Helper()
	eng := sim.New()
	hub := netsim.NewHub(eng, mbps100, 3000)
	opt.Kind = kind
	if opt.Docs == nil {
		opt.Docs = docs()
	}
	srv, err := NewServer(eng, cost.Default(), hub, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return &bed{eng: eng, hub: hub, srv: srv}
}

func (b *bed) client(i int, doc string) *workload.Client {
	ip := lib.IPv4(10, 0, 1, byte(i+1))
	mac := netsim.MAC(0x0200_0000_1000 + uint64(i))
	return workload.NewClient(b.eng, b.hub, "client", ip, mac, ServerIP, doc, uint64(i+1))
}

// kindNames names the configurations in subtest names.
var kindNames = map[Kind]string{KindScout: "Scout", KindAccounting: "Accounting", KindAccountingPD: "Accounting_PD"}

func TestEndToEndSingleRequest(t *testing.T) {
	for _, kind := range []Kind{KindScout, KindAccounting, KindAccountingPD} {
		t.Run(kindNames[kind], func(t *testing.T) {
			b := newBed(t, kind, Options{})
			c := b.client(0, "/doc1k")
			c.Start()
			b.srv.Run(2 * sim.CyclesPerSecond)
			c.Stop()
			b.srv.Run(sim.CyclesPerSecond) // drain the in-flight request
			if c.Completed == 0 {
				t.Fatalf("no completed requests (failed=%d, established=%d, server completed=%d, rejects=%d)",
					c.Failed, b.srv.TCP.Established, b.srv.TCP.Completed, b.srv.Paths.DemuxRejects)
			}
			if b.srv.TCP.Completed == 0 {
				t.Fatal("server did not record completion")
			}
			if b.srv.TCP.OpenConns() != 0 {
				t.Fatalf("connection table not empty: %d", b.srv.TCP.OpenConns())
			}
			if b.srv.HTTP.Requests == 0 {
				t.Fatal("HTTP saw no requests")
			}
		})
	}
}

func TestManySerialRequestsReuseCache(t *testing.T) {
	b := newBed(t, KindAccounting, Options{})
	c := b.client(0, "/doc1k")
	c.Start()
	b.srv.Run(3 * sim.CyclesPerSecond)
	if c.Completed < 10 {
		t.Fatalf("completed = %d, want many serial requests", c.Completed)
	}
	if b.srv.FS.Misses != 1 {
		t.Fatalf("fs misses = %d, want exactly 1 (first request hits disk)", b.srv.FS.Misses)
	}
	if b.srv.SCSI.Reads != 1 {
		t.Fatalf("disk reads = %d, want 1", b.srv.SCSI.Reads)
	}
	// Paths must not accumulate: one live active path at most, plus the
	// two passive paths and the ARP path.
	if live := b.srv.Paths.Live(); live > 5 {
		t.Fatalf("live paths = %d; connection paths leaking", live)
	}
}

func TestParallelClients(t *testing.T) {
	b := newBed(t, KindAccounting, Options{})
	var clients []*workload.Client
	for i := 0; i < 8; i++ {
		c := b.client(i, "/doc1k")
		clients = append(clients, c)
		c.Start()
	}
	b.srv.Run(3 * sim.CyclesPerSecond)
	total := uint64(0)
	for i, c := range clients {
		if c.Completed == 0 {
			t.Fatalf("client %d starved (failed=%d)", i, c.Failed)
		}
		total += c.Completed
	}
	if total < 100 {
		t.Fatalf("total completions = %d, want substantial throughput", total)
	}
}

func TestTenKDocumentTransfers(t *testing.T) {
	b := newBed(t, KindAccounting, Options{})
	c := b.client(0, "/doc10k")
	c.Start()
	b.srv.Run(3 * sim.CyclesPerSecond)
	if c.Completed == 0 {
		t.Fatalf("no 10K completions (failed=%d)", c.Failed)
	}
	// 10 KB requires multiple MSS segments, so slow start matters: the
	// mean latency must exceed the 1-byte case.
	b2 := newBed(t, KindAccounting, Options{})
	c2 := b2.client(0, "/doc1")
	c2.Start()
	b2.srv.Run(3 * sim.CyclesPerSecond)
	if c2.Completed == 0 {
		t.Fatal("no 1-byte completions")
	}
	if c.MeanLatency() <= c2.MeanLatency() {
		t.Fatalf("10K latency %d <= 1B latency %d; segmentation not happening",
			c.MeanLatency(), c2.MeanLatency())
	}
}

func TestAccountingLedgerConservation(t *testing.T) {
	b := newBed(t, KindAccountingPD, Options{})
	before := b.srv.K.Ledger().Snapshot(b.eng.Now())
	c := b.client(0, "/doc1k")
	c.Start()
	b.srv.Run(2 * sim.CyclesPerSecond)
	after := b.srv.K.Ledger().Snapshot(b.eng.Now())
	d := after.Diff(before)
	if d.Unaccounted() != 0 {
		t.Fatalf("unaccounted = %d of %d measured", d.Unaccounted(), d.Measured)
	}
	if c.Completed == 0 {
		t.Fatal("no traffic flowed")
	}
}

func TestActivePathDoesMostWork(t *testing.T) {
	// The Table 1 claim: >92% of non-idle cycles on the active path.
	b := newBed(t, KindAccounting, Options{})
	c := b.client(0, "/doc1")
	c.Start()
	b.srv.Run(2 * sim.CyclesPerSecond)
	if c.Completed == 0 {
		t.Fatal("no traffic")
	}
	snap := b.srv.K.Ledger().Snapshot(b.eng.Now())
	var active, passive, total sim.Cycles
	for name, cyc := range snap.Cycles {
		if name == "Idle" {
			continue
		}
		total += cyc
		if hasPrefix(name, "Active Path") {
			active += cyc
		}
		if hasPrefix(name, "Passive SYN Path") {
			passive += cyc
		}
	}
	if total == 0 || active == 0 || passive == 0 {
		t.Fatalf("cycles: active=%d passive=%d total=%d", active, passive, total)
	}
	if float64(active)/float64(total) < 0.60 {
		t.Fatalf("active path share = %.2f of non-idle; expected dominant", float64(active)/float64(total))
	}
	if active < passive {
		t.Fatal("passive path outweighs active path")
	}
}

func hasPrefix(s, p string) bool {
	return len(s) >= len(p) && s[:len(p)] == p
}

func TestUntrustedSynFloodDroppedAtDemux(t *testing.T) {
	b := newBed(t, KindAccounting, Options{SynCapUntrusted: 64})
	atk := workload.NewSynAttacker(b.eng, b.hub, "atk",
		lib.IPv4(192, 168, 9, 9), netsim.MAC(0x0200_0000_9999), ServerIP, 1000, 99)
	atk.Start()
	b.srv.Run(2 * sim.CyclesPerSecond)
	if atk.Sent < 1500 {
		t.Fatalf("attacker sent only %d SYNs", atk.Sent)
	}
	u := b.srv.Untrusted
	if u.DroppedSyn == 0 {
		t.Fatal("no SYNs dropped despite cap")
	}
	if u.SynRecvd > 64 {
		t.Fatalf("SYN_RECVD count %d exceeds cap", u.SynRecvd)
	}
	// Trusted listener untouched.
	if b.srv.Trusted.DroppedSyn != 0 {
		t.Fatal("trusted listener dropped SYNs")
	}
}

func TestTrustedClientsSurviveSynFlood(t *testing.T) {
	b := newBed(t, KindAccounting, Options{SynCapUntrusted: 64})
	c := b.client(0, "/doc1")
	c.Start()
	atk := workload.NewSynAttacker(b.eng, b.hub, "atk",
		lib.IPv4(192, 168, 9, 9), netsim.MAC(0x0200_0000_9999), ServerIP, 1000, 99)
	atk.Start()
	b.srv.Run(2 * sim.CyclesPerSecond)
	if c.Completed == 0 {
		t.Fatal("trusted client starved by SYN flood")
	}
}

func TestCGIAttackContained(t *testing.T) {
	b := newBed(t, KindAccounting, Options{})
	atk := workload.NewCGIAttacker(b.eng, b.hub, "cgi",
		lib.IPv4(10, 0, 2, 1), netsim.MAC(0x0200_0000_2001), ServerIP, 77)
	atk.Start()
	b.srv.Run(3 * sim.CyclesPerSecond)
	if b.srv.HTTP.CGIRequests == 0 {
		t.Fatal("no CGI requests reached HTTP")
	}
	if b.srv.Contain.Kills == 0 {
		t.Fatal("runaway CGI never contained")
	}
	if b.srv.Contain.LastKillCycles == 0 {
		t.Fatal("kill cost not measured")
	}
	// All attacker resources reclaimed: no runaway threads survive.
	if b.srv.TCP.OpenConns() > 1 {
		t.Fatalf("connection table holds %d entries", b.srv.TCP.OpenConns())
	}
}

func TestScoutCannotContainCGI(t *testing.T) {
	// Base Scout has no accounting, so the runaway thread is never
	// detected: the CPU is consumed (the attack succeeds).
	b := newBed(t, KindScout, Options{})
	atk := workload.NewCGIAttacker(b.eng, b.hub, "cgi",
		lib.IPv4(10, 0, 2, 1), netsim.MAC(0x0200_0000_2001), ServerIP, 77)
	atk.Start()
	c := b.client(0, "/doc1")
	c.Start()
	b.srv.Run(2 * sim.CyclesPerSecond)
	if b.srv.Contain != nil {
		t.Fatal("Scout config has a containment policy")
	}
	if c.Completed > 50 {
		t.Fatalf("clients completed %d requests; runaway CGI should have monopolized the CPU", c.Completed)
	}
}

func TestQoSStreamDelivers(t *testing.T) {
	b := newBed(t, KindAccounting, Options{QoSRateBps: 1 << 20})
	recv := workload.NewQoSReceiver(b.eng, b.hub, "qos",
		lib.IPv4(10, 0, 0, 2), netsim.MAC(0x0200_0000_0002), ServerIP, 5)
	recv.Start()
	b.srv.Run(5 * sim.CyclesPerSecond)
	rate := recv.RateBps(3 * sim.CyclesPerSecond)
	target := float64(1 << 20)
	if rate < target*0.95 || rate > target*1.10 {
		t.Fatalf("stream rate = %.0f B/s, want ~%.0f (received %d bytes)",
			rate, target, recv.BytesReceived)
	}
}

func TestPathFinderConfigurationServes(t *testing.T) {
	b := newBed(t, KindAccounting, Options{PathFinder: true, SynCapUntrusted: 64})
	c := b.client(0, "/doc1k")
	c.Start()
	b.srv.Run(2 * sim.CyclesPerSecond)
	if c.Completed == 0 {
		t.Fatalf("no completions under pattern demux (failed=%d)", c.Failed)
	}
	if b.srv.Paths.PatternHits == 0 {
		t.Fatal("classifier never hit; traffic took the module chain")
	}
	// Most established-connection traffic classifies on the fast path.
	ratio := float64(b.srv.Paths.PatternHits) /
		float64(b.srv.Paths.PatternHits+b.srv.Paths.PatternMisses)
	if ratio < 0.5 {
		t.Fatalf("pattern hit ratio = %.2f, want most traffic on the fast path", ratio)
	}
	// Connection patterns are uninstalled at teardown: only the static
	// patterns (two listeners, QoS absent, ARP) remain after the last
	// connection drains.
	c.Stop()
	b.srv.Run(sim.CyclesPerSecond)
	if n := b.srv.Classifier.Len(); n > 4 {
		t.Fatalf("%d patterns left installed; connection patterns leaking", n)
	}
}

func TestPathFinderSynCapAsPatternAbsence(t *testing.T) {
	b := newBed(t, KindAccounting, Options{PathFinder: true, SynCapUntrusted: 8})
	atk := workload.NewSynAttacker(b.eng, b.hub, "atk",
		lib.IPv4(192, 168, 9, 9), netsim.MAC(0x0200_0000_9999), ServerIP, 500, 99)
	atk.Start()
	b.srv.Run(2 * sim.CyclesPerSecond)
	u := b.srv.Untrusted
	if u.SynRecvd > 8 {
		t.Fatalf("SYN_RECVD = %d exceeds cap under pattern demux", u.SynRecvd)
	}
	if u.DroppedSyn == 0 {
		t.Fatal("no SYNs dropped")
	}
	// Trusted clients still get in while the untrusted pattern is gone.
	c := b.client(0, "/doc1")
	c.Start()
	b.srv.Run(sim.CyclesPerSecond)
	if c.Completed == 0 {
		t.Fatal("trusted client starved in pattern mode")
	}
}

func TestPathFinderCheaperDemuxUnderFlood(t *testing.T) {
	// The point of PATHFINDER per the paper: cheaper, more trustworthy
	// classification. Compare per-SYN demux cost with and without it.
	measure := func(pf bool) float64 {
		b := newBed(t, KindAccounting, Options{PathFinder: pf, SynCapUntrusted: 64})
		c := b.client(0, "/doc1")
		c.Start()
		b.srv.Run(sim.CyclesPerSecond) // warm
		base := c.Completed
		atk := workload.NewSynAttacker(b.eng, b.hub, "atk",
			lib.IPv4(192, 168, 9, 9), netsim.MAC(0x0200_0000_9999), ServerIP, 2000, 99)
		atk.Start()
		b.srv.Run(2 * sim.CyclesPerSecond)
		return float64(c.Completed-base) / 2
	}
	withPF := measure(true)
	without := measure(false)
	if withPF < without {
		t.Fatalf("pattern demux (%.0f conn/s under flood) slower than module chain (%.0f)",
			withPF, without)
	}
}

func TestPenaltyBoxDemotesRepeatOffenders(t *testing.T) {
	b := newBed(t, KindAccounting, Options{PenaltyBox: true})
	atk := workload.NewCGIAttacker(b.eng, b.hub, "cgi",
		lib.IPv4(10, 0, 2, 1), netsim.MAC(0x0200_0000_2001), ServerIP, 77)
	atk.Start()
	b.srv.Run(4 * sim.CyclesPerSecond)
	if b.srv.Contain.Kills == 0 {
		t.Fatal("no containment events")
	}
	if b.srv.Penalty.Count() == 0 {
		t.Fatal("offender never recorded")
	}
	if !b.srv.Penalty.IsOffender(lib.IPv4(10, 0, 2, 1)) {
		t.Fatal("attacker address not boxed")
	}
	// Subsequent attacks land on the penalty listener, not the trusted
	// one: after the first kill, new accepts shift.
	b.srv.Run(4 * sim.CyclesPerSecond)
	if b.srv.PenaltyListener.Accepted == 0 {
		t.Fatal("repeat offender not demultiplexed to the penalty path")
	}
	// A fresh, well-behaved client is unaffected.
	c := b.client(0, "/doc1")
	c.Start()
	b.srv.Run(sim.CyclesPerSecond)
	if c.Completed == 0 {
		t.Fatal("innocent client penalized")
	}
	if b.srv.Penalty.IsOffender(c.IP) {
		t.Fatal("innocent client boxed")
	}
}

func TestPenaltyBoxCapsOffenderBacklog(t *testing.T) {
	b := newBed(t, KindAccounting, Options{PenaltyBox: true})
	atk := workload.NewCGIAttacker(b.eng, b.hub, "cgi",
		lib.IPv4(10, 0, 2, 1), netsim.MAC(0x0200_0000_2001), ServerIP, 77)
	atk.Interval = sim.CyclesPerSecond / 4 // aggressive: 4 attacks/s
	atk.Start()
	b.srv.Run(6 * sim.CyclesPerSecond)
	pl := b.srv.PenaltyListener
	if pl.SynCap != penaltySynCap {
		t.Fatalf("penalty listener cap = %d, want %d", pl.SynCap, penaltySynCap)
	}
	if pl.SynRecvd > penaltySynCap {
		t.Fatalf("penalty backlog %d exceeds cap %d", pl.SynRecvd, penaltySynCap)
	}
	if pl.Accepted == 0 && pl.DroppedSyn == 0 {
		t.Fatal("penalty listener saw no traffic")
	}
}

func TestPortFilterNarrowsTCPInterface(t *testing.T) {
	b := newBed(t, KindAccountingPD, Options{PortFilter: true})
	// Normal web traffic passes the filter.
	c := b.client(0, "/doc1")
	c.Start()
	b.srv.Run(2 * sim.CyclesPerSecond)
	if c.Completed == 0 {
		t.Fatalf("filter blocked legitimate port-80 traffic (failed=%d)", c.Failed)
	}
	if len(b.srv.Graph.Nodes()) != 8 {
		t.Fatalf("graph has %d nodes, want 8 (filter included)", len(b.srv.Graph.Nodes()))
	}
	// A probe to a non-web port dies at the filter, before TCP code runs.
	probe := workload.NewClient(b.eng, b.hub, "probe",
		lib.IPv4(10, 0, 3, 1), netsim.MAC(0x0200_0000_3001), ServerIP, "/doc1", 9)
	probe.Port = 9999
	probe.SynRetry = 0
	probe.Start()
	before := b.srv.Filter.Dropped
	b.srv.Run(sim.CyclesPerSecond)
	if b.srv.Filter.Dropped == before {
		t.Fatal("non-web port probe not dropped by the filter")
	}
	if probe.Completed != 0 {
		t.Fatal("probe to closed port completed")
	}
}

// TestDefenseArmsServerHooks maps each accepted defense entry to the
// server or TCP hook it arms. On an accounting server every entry arms
// its hook; base Scout arms only the ones that need no accounting
// (shedding and the puzzle gate). The same entries passed through
// Options.Faults arm nothing: the server reads defenses only from
// Options.Defense.
func TestDefenseArmsServerHooks(t *testing.T) {
	type armed struct{ watchdog, shed, puzzle, reaper, detector bool }
	cases := []struct {
		spec string
		want armed // on an accounting server
	}{
		{"watchdog", armed{watchdog: true}},
		{"shed=0.9", armed{shed: true}},
		{"shed=0.9,puzzle=8", armed{shed: true, puzzle: true}},
		{"reaper", armed{reaper: true}},
		{"reaper=250ms", armed{reaper: true}},
		{"detector", armed{detector: true}},
	}
	for _, c := range cases {
		sp, err := fault.ParseSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []Kind{KindScout, KindAccounting} {
			t.Run(kindNames[kind]+"/"+c.spec, func(t *testing.T) {
				hooks := func(opt Options) armed {
					s := newBed(t, kind, opt).srv
					if (s.Detector != nil) != (s.TCP.ShedSrc != nil) {
						t.Errorf("detector %v but per-source shed hook %v", s.Detector != nil, s.TCP.ShedSrc != nil)
					}
					return armed{s.Watchdog != nil, s.TCP.Shed != nil, s.TCP.Puzzle != nil,
						s.Reaper != nil, s.Detector != nil}
				}
				want := c.want
				if kind == KindScout {
					want.watchdog, want.reaper, want.detector = false, false, false
				}
				if got := hooks(Options{Defense: sp.Defense}); got != want {
					t.Errorf("Options.Defense armed %+v, want %+v", got, want)
				}
				if got := hooks(Options{Faults: sp}); got != (armed{}) {
					t.Errorf("Options.Faults armed %+v, want nothing", got)
				}
			})
		}
	}
}

// On Accounting_PD, active paths over the same protection-domain chain
// share one allowed-crossings table, and the shared table still refuses
// a crossing between two domains that no stage pair makes adjacent: the
// faulting thread's path is killed.
func TestActivePathsShareCrossingTable(t *testing.T) {
	b := newBed(t, KindAccountingPD, Options{})
	for i := 0; i < 4; i++ {
		b.client(i, "/doc10k").Start()
	}
	b.srv.Run(300 * sim.CyclesPerMillisecond)
	var active []*path.Path
	for _, p := range b.srv.Paths.Paths() {
		if hasPrefix(p.PathName(), "Active Path") {
			active = append(active, p)
		}
	}
	if len(active) < 2 {
		t.Fatalf("%d live active paths, want at least 2", len(active))
	}
	table := path.SpawnOptsForPath(active[0]).Allowed
	for _, p := range active[1:] {
		if path.SpawnOptsForPath(p).Allowed != table {
			t.Fatalf("%s and %s cross the same domains but hold different tables", active[0].PathName(), p.PathName())
		}
	}
	p := active[0]
	doms := p.Domains()
	if len(doms) < 3 {
		t.Fatalf("active path crosses %d domains, want at least 3", len(doms))
	}
	top, bottom := doms[0].ID(), doms[len(doms)-1].ID()
	if _, ok := table.Get(lib.PairKey(uint32(top), uint32(bottom))); ok {
		t.Fatalf("table allows %s -> %s", doms[0].Name(), doms[len(doms)-1].Name())
	}
	escaped := false
	p.Spawn("probe", func(ctx *kernel.Ctx) {
		ctx.Cross(top, func() {
			ctx.Cross(bottom, func() { escaped = true })
		})
	})
	b.srv.Run(10 * sim.CyclesPerMillisecond)
	if escaped || p.Alive() {
		t.Fatalf("non-adjacent crossing: escaped=%v, path alive=%v", escaped, p.Alive())
	}
}

// Package escort assembles complete Escort web-server configurations:
// the module graph of Figure 1 (SCSI-FS-HTTP-TCP-IP-ARP-ETH), the
// protection-domain partitioning of Figure 3, the passive SYN paths of
// the trusted/untrusted defense, the QoS stream service, and the
// containment policy. This is the library's top-level entry point: the
// examples, the experiment harness, and the benchmarks all build
// servers through it.
package escort

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/path"
	"repro/internal/pathfinder"
	"repro/internal/policy"
	"repro/internal/scsi"
	"repro/internal/sim"

	arpmod "repro/internal/proto/arp"
	ethmod "repro/internal/proto/eth"
	httpmod "repro/internal/proto/http"
	ipmod "repro/internal/proto/ip"
	tcpmod "repro/internal/proto/tcp"
)

// Kind selects the measured configuration (§4.1.1).
type Kind int

// The three Scout-based configurations. The Linux baseline lives in
// internal/linuxsim.
const (
	// KindScout disables accounting and runs every module in the
	// privileged domain: base Scout.
	KindScout Kind = iota
	// KindAccounting enables full resource accounting, single domain.
	KindAccounting
	// KindAccountingPD enables accounting and places every module in its
	// own protection domain (Figure 3) — the worst case.
	KindAccountingPD
)

func (k Kind) String() string {
	switch k {
	case KindScout:
		return "Scout"
	case KindAccounting:
		return "Accounting"
	case KindAccountingPD:
		return "Accounting_PD"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Default addressing for the Figure 7 testbed.
var (
	// ServerIP is 10.0.0.1; the 10.0.0.0/8 network is the trusted subnet.
	ServerIP = lib.IPv4(10, 0, 0, 1)
	// ServerMAC is the server NIC's address.
	ServerMAC = netsim.MAC(0x0200_0000_0001)
)

// penaltySynCap bounds the penalty listener's SYN_RECVD backlog: boxed
// offenders get a trickle of admissions, never a backlog.
const penaltySynCap = 4

// TrustedMatch is the default trust predicate: the 10/8 subnet.
func TrustedMatch(ip uint32) bool { return ip>>24 == 10 }

// Options configures a server build.
type Options struct {
	Kind      Kind
	Scheduler string // default "proportional-share"

	// Docs populates the file system (path -> content).
	Docs map[string][]byte

	// ServerIP/ServerMAC override the defaults.
	ServerIP  uint32
	ServerMAC netsim.MAC

	// TrustedMatch classifies source addresses; SynCapTrusted and
	// SynCapUntrusted bound each passive path's SYN_RECVD backlog (zero:
	// unlimited).
	TrustedMatch    func(uint32) bool
	SynCapTrusted   int
	SynCapUntrusted int

	// QoSRateBps enables the stream service on port 81 at this rate;
	// QoSTickets is the reservation's proportional share.
	QoSRateBps int
	QoSTickets uint64

	// PathFinder enables pattern-based demultiplexing (the paper's
	// PATHFINDER alternative): connection and listener patterns are
	// evaluated by the kernel instead of module demux functions.
	PathFinder bool

	// PortFilter interposes the §2.5 example filter on the TCP/IP edge:
	// the interface narrows from "receive packets" to "receive packets
	// to the web ports" (80, and 81 when the QoS service is on). The
	// vanilla TCP and IP modules are unchanged — that is the point.
	PortFilter bool

	// PenaltyBox demultiplexes previously-offending clients (sources of
	// killed paths) to a distinct passive path with a tiny allocation —
	// the alternative policy of §4.4.4. Requires accounting.
	PenaltyBox bool

	// FSCacheBudget bounds the block cache (default 16 MB).
	FSCacheBudget int

	// TotalPages sizes physical memory (default 32768 pages = 256 MB).
	TotalPages int

	// Obs selects the observability sinks: event tracing (Chrome
	// trace_event JSON / text), per-owner metrics sampling, and the
	// kernel console. It replaces the former Trace io.Writer field —
	// console output now goes through Obs.Console. Nil (the zero
	// value) disables everything at zero cost.
	Obs *obs.Config

	// Faults configures deterministic fault injection and graceful
	// degradation: armed failpoints go into the kernel, the watchdog
	// and overload shedding are enabled per the spec. Network faults
	// are wired outside the server (the injector wraps the segment the
	// NIC attaches to); see fault.Spec and ROBUSTNESS.md. Nil disables
	// everything — the fast path pays one nil test per guarded site.
	Faults *fault.Spec
}

// Server is an assembled Escort web server.
type Server struct {
	Kind  Kind
	K     *kernel.Kernel
	Graph *module.Graph
	Paths *path.Manager

	NIC    *netsim.NIC
	Filter *module.Filter
	ETH    *ethmod.Module
	ARP    *arpmod.Module
	IP     *ipmod.Module
	TCP    *tcpmod.Module
	HTTP   *httpmod.Module
	FS     *fs.Module
	SCSI   *scsi.Module

	Trusted   *tcpmod.Listener
	Untrusted *tcpmod.Listener
	QoS       *tcpmod.Listener

	// Classifier is the pattern demultiplexer when Options.PathFinder
	// was set.
	Classifier *pathfinder.Classifier

	// Penalty is the offender registry when Options.PenaltyBox was set;
	// PenaltyListener is its passive path's listener.
	Penalty         *policy.PenaltyBox
	PenaltyListener *tcpmod.Listener

	Contain *policy.Containment

	// Watchdog is the hung-path detector when Options.Faults enabled it.
	Watchdog *policy.Watchdog

	// Reaper is the idle/slow-session reaper when Options.Faults
	// enabled it.
	Reaper *policy.SessionReaper

	// Detector is the adaptive anomaly detector when Options.Faults
	// enabled it.
	Detector *policy.Detector

	// Obs holds the live observability sinks built from Options.Obs.
	// Call Obs.Close() after the run to flush the trace and metrics
	// exports; it is nil-safe and idempotent.
	Obs *obs.Observer
}

// NewServer builds a server of the given kind on the engine and
// attaches its NIC to seg.
func NewServer(eng *sim.Engine, model *cost.Model, seg netsim.Attacher, opt Options) (*Server, error) {
	if opt.ServerIP == 0 {
		opt.ServerIP = ServerIP
	}
	if opt.ServerMAC == 0 {
		opt.ServerMAC = ServerMAC
	}
	if opt.TrustedMatch == nil {
		opt.TrustedMatch = TrustedMatch
	}
	if opt.FSCacheBudget == 0 {
		opt.FSCacheBudget = 16 << 20
	}
	if opt.TotalPages == 0 {
		opt.TotalPages = 32768
	}
	if opt.Scheduler == "" {
		opt.Scheduler = "proportional-share"
	}
	if opt.QoSTickets == 0 {
		opt.QoSTickets = 10_000
	}
	accounting := opt.Kind != KindScout

	o := obs.New(opt.Obs)
	if opt.Faults != nil && opt.Faults.Detector && accounting && o.Metrics == nil {
		// The detector rides the metrics sampler's 10 ms tick. When no
		// metrics sink is configured, install a sink-less sampler so
		// arming the detector never changes whether sampling happens —
		// only who consumes the samples.
		var interval sim.Cycles
		var group func(string) string
		if opt.Obs != nil {
			interval, group = opt.Obs.MetricsInterval, opt.Obs.OwnerGroup
		}
		o.Metrics = obs.NewSampler(interval, group)
	}
	kcfg := kernel.Config{
		Accounting:    accounting,
		Scheduler:     opt.Scheduler,
		TotalPages:    opt.TotalPages,
		Console:       o.Console,
		Tracer:        o.Tracer,
		Metrics:       o.Metrics,
		Faults:        opt.Faults.NewSet(),
		FaultCounters: o.Faults,
	}
	if accounting {
		// Detection requires accounting: base Scout cannot enforce the
		// runtime limit (the point of the comparison).
		kcfg.MaxRunDefault = policy.DefaultCGILimit
	}
	k := kernel.New(eng, model, kcfg)

	domFor := func(name string) string {
		if opt.Kind != KindAccountingPD {
			return "" // privileged domain
		}
		k.Domains().Create(name)
		return name
	}

	nic := netsim.NewNIC("server-eth0", opt.ServerMAC)
	seg.Attach(nic)

	s := &Server{Kind: opt.Kind, K: k, NIC: nic, Obs: o}
	tcpDown, ipUp := "ip", "tcp" // tcp's open successor; ip's demux successor
	if opt.PortFilter {
		tcpDown, ipUp = "portfilter", "portfilter"
	}
	s.SCSI = scsi.New("scsi", "fs")
	s.FS = fs.New("fs", "http", opt.FSCacheBudget)
	s.HTTP = httpmod.New("http", "tcp")
	s.TCP = tcpmod.New("tcp", tcpDown, opt.ServerIP)
	s.IP = ipmod.New("ip", ipUp, "eth", opt.ServerIP)
	s.ARP = arpmod.New("arp", "eth", opt.ServerIP, opt.ServerMAC)
	s.ETH = ethmod.New("eth", nic, "ip", "arp")
	if opt.PortFilter {
		allowPort := func(port uint16) bool {
			return port == 80 || (opt.QoSRateBps > 0 && port == 81)
		}
		s.Filter = module.NewFilter("portfilter", "ip", "tcp",
			func(dir module.Direction, m *msg.Msg) bool {
				if dir == module.Down {
					return true
				}
				b := m.Bytes() // TCP segment view (lower headers stripped)
				if len(b) < 4 {
					return false
				}
				return allowPort(uint16(b[2])<<8 | uint16(b[3]))
			}).WithDemuxPredicate(func(dir module.Direction, m *msg.Msg) bool {
			b := m.Bytes() // raw frame view
			off := 14 + 20 + 2
			if len(b) < off+2 {
				return false
			}
			return allowPort(uint16(b[off])<<8 | uint16(b[off+1]))
		})
	}

	docNames := make([]string, 0, len(opt.Docs))
	for name := range opt.Docs {
		docNames = append(docNames, name)
	}
	sort.Strings(docNames)
	for _, name := range docNames {
		s.FS.AddFile(name, opt.Docs[name])
	}

	g := module.NewGraph(k)
	g.Add("scsi", s.SCSI, domFor("scsi"))
	g.Add("fs", s.FS, domFor("fs"))
	g.Add("http", s.HTTP, domFor("http"))
	g.Add("tcp", s.TCP, domFor("tcp"))
	if opt.PortFilter {
		// The filter runs in TCP's protection domain (it guards TCP's
		// interface); syntactically it is an ordinary module on the edge.
		g.Add("portfilter", s.Filter, domFor2(k, opt.Kind, "tcp"))
	}
	g.Add("ip", s.IP, domFor("ip"))
	g.Add("arp", s.ARP, domFor("arp"))
	g.Add("eth", s.ETH, domFor("eth"))
	g.Connect("scsi", "fs", module.FileAccess)
	g.Connect("fs", "http", module.FileAccess)
	g.Connect("http", "tcp", module.AIO)
	if opt.PortFilter {
		g.Connect("tcp", "portfilter", module.AIO)
		g.Connect("portfilter", "ip", module.AIO)
	} else {
		g.Connect("tcp", "ip", module.AIO)
	}
	g.Connect("ip", "eth", module.AIO)
	g.Connect("arp", "eth", module.AIO)
	s.Graph = g

	mgr := path.NewManager(g)
	s.Paths = mgr
	if opt.PathFinder {
		s.Classifier = pathfinder.New()
		mgr.SetClassifier(s.Classifier)
		s.TCP.Patterns = s.Classifier
	}
	if accounting {
		s.Contain = policy.EnableContainment(k, mgr)
	}
	if opt.Faults != nil && opt.Faults.Watchdog && accounting {
		s.Watchdog = policy.EnableWatchdog(k, mgr, opt.Faults.WatchdogStall)
	}
	if opt.Faults != nil && opt.Faults.Shed > 0 {
		// Overload shedding: refuse new connections while page-pool
		// pressure sits above the high-water mark, so established paths
		// keep their memory during a fault storm.
		pages, mark := k.Pages(), opt.Faults.Shed
		s.TCP.Shed = func() bool {
			return float64(pages.InUse()) >= mark*float64(pages.TotalPages())
		}
	}
	if opt.Faults != nil && opt.Faults.PuzzleBits > 0 {
		// The puzzle gate refines shedding: instead of refusing every
		// new connection under pressure, admit the ones that pay.
		s.TCP.Puzzle = &tcpmod.PuzzleGate{Bits: opt.Faults.PuzzleBits}
	}
	if opt.Faults != nil && opt.Faults.Reaper && accounting {
		s.Reaper = policy.EnableSessionReaper(k, mgr, s.TCP, opt.Faults.ReaperMinAge)
	}
	if opt.Faults != nil && opt.Faults.Detector && accounting {
		s.Detector = policy.EnableDetector(k, mgr, s.TCP, s.TCP, o.Metrics)
		s.TCP.ShedSrc = s.Detector.SourceShed
	}

	if err := g.Init(mgr, mgr.DeliverInbound); err != nil {
		return nil, fmt.Errorf("escort: graph init: %w", err)
	}

	// The penalty passive path registers first so that demultiplexing
	// prefers it: an offender's SYN must not reach the regular
	// listeners.
	if opt.PenaltyBox && accounting {
		s.Penalty = policy.NewPenaltyBox(eng, 0)
		s.Penalty.Tracer = o.Tracer
		s.TCP.OnOffender = s.Penalty.Record
		penaltyAttrs := policy.PassiveAttrs(80, "penalty", s.Penalty.IsOffender,
			penaltySynCap, "scsi", nil)
		penaltyAttrs[tcpmod.AttrOnAccept] = func(p module.PathRef) {
			policy.DemotePriority(p)
			if tr := o.Tracer; tr != nil {
				tr.Policy("penaltyRoute", p.PathName(), "", eng.Now())
			}
		}
		if _, err := mgr.Create(nil, "Passive SYN Path (penalty)", "tcp", penaltyAttrs); err != nil {
			return nil, fmt.Errorf("escort: penalty passive path: %w", err)
		}
		if s.Detector != nil {
			// The detector's kill rung boxes path-less offenders (pure
			// demand floods) directly; path-owning offenders arrive via
			// pathKill's reapKilled -> OnOffender chain like every other
			// kill.
			s.Detector.OnOffender = s.Penalty.Record
		}
	}

	// Passive SYN paths: trusted and untrusted subnets each get their
	// own (§4.4.1); the policy's SYN_RECVD caps apply at demux time. The
	// trust split is expressed twice: as a predicate for the module
	// demux chain and as a masked prefix for pattern demultiplexing.
	trustedAttrs := policy.PassiveAttrs(80, "trusted", opt.TrustedMatch,
		opt.SynCapTrusted, "scsi", nil)
	trustedAttrs[tcpmod.AttrTrustSubnet] = lib.IPv4(10, 0, 0, 0)
	trustedAttrs[tcpmod.AttrTrustMask] = uint32(0xFF000000)
	if _, err := mgr.Create(nil, "Passive SYN Path (trusted)", "tcp", trustedAttrs); err != nil {
		return nil, fmt.Errorf("escort: trusted passive path: %w", err)
	}
	untrustedAttrs := policy.PassiveAttrs(80, "untrusted",
		func(ip uint32) bool { return !opt.TrustedMatch(ip) },
		opt.SynCapUntrusted, "scsi", nil)
	if _, err := mgr.Create(nil, "Passive SYN Path (untrusted)", "tcp", untrustedAttrs); err != nil {
		return nil, fmt.Errorf("escort: untrusted passive path: %w", err)
	}

	if opt.QoSRateBps > 0 {
		qosExtra := lib.Attrs{
			httpmod.AttrStream:     true,
			tcpmod.AttrStream:      true,
			httpmod.AttrStreamRate: opt.QoSRateBps,
		}
		qosAttrs := policy.PassiveAttrs(81, "qos", opt.TrustedMatch, 0, "scsi", qosExtra)
		qosAttrs[tcpmod.AttrOnAccept] = policy.QoSOnAccept(opt.QoSTickets)
		if _, err := mgr.Create(nil, "Passive QoS Path", "tcp", qosAttrs); err != nil {
			return nil, fmt.Errorf("escort: QoS passive path: %w", err)
		}
	}

	for _, l := range s.TCP.Listeners() {
		switch l.TrustClass {
		case "trusted":
			s.Trusted = l
		case "untrusted":
			s.Untrusted = l
		case "qos":
			s.QoS = l
		case "penalty":
			s.PenaltyListener = l
		}
	}
	if s.Classifier != nil {
		// ARP frames resolve to the ARP path by pattern too.
		if arpPath := s.ARP.PathRef(); arpPath != nil {
			_ = s.Classifier.Add(pathfinder.ARPPattern(arpPath))
		}
	}
	if tr := o.Tracer; tr != nil {
		// Engine fires trace through the hook (sim cannot import obs);
		// every protection domain becomes a trace "process".
		eng.OnFire = tr.EngineFire
		for _, d := range k.Domains().All() {
			tr.Process(uint32(d.ID()), d.Name())
		}
	}
	return s, nil
}

// domFor2 resolves the domain for a module that shares another
// module's domain in the per-module configuration (the port filter
// lives with TCP).
func domFor2(k *kernel.Kernel, kind Kind, name string) string {
	if kind != KindAccountingPD {
		return ""
	}
	if _, ok := k.Domains().ByName(name); ok {
		return name
	}
	return ""
}

// Run advances the server's kernel (and with it the whole simulation)
// by d cycles.
func (s *Server) Run(d sim.Cycles) { s.K.RunFor(d) }

// Completed returns the number of connections served to completion.
func (s *Server) Completed() uint64 { return s.TCP.Completed }

// Stop unwinds the kernel's threads (test hygiene) after taking a
// final metrics sample so the exported series covers the whole run.
func (s *Server) Stop() {
	m := s.K.Metrics()
	if m != nil {
		m.Final(s.K.Engine().Now())
	}
	s.K.Stop()
}

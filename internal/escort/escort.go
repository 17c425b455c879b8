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

// Default addressing for the Figure 7 testbed.
var (
	// ServerIP is 10.0.0.1; the 10.0.0.0/8 network is the trusted subnet.
	ServerIP = lib.IPv4(10, 0, 0, 1)
	// ServerMAC is the server NIC's address.
	ServerMAC = netsim.MAC(0x0200_0000_0001)
)

const (
	// penaltySynCap bounds the penalty listener's SYN_RECVD backlog:
	// boxed offenders get a trickle of admissions, never a backlog.
	penaltySynCap = 4

	// qosTickets is the stream reservation's proportional share.
	qosTickets = 10_000

	// totalPages sizes physical memory (32768 pages = 256 MB).
	totalPages = 32768

	// The trusted subnet, 10/8: the one definition behind both the
	// module demux predicate and the PathFinder listener pattern.
	trustedSubnet uint32 = 10 << 24
	trustedMask   uint32 = 0xFF000000
)

// TrustedMatch is the trust predicate: the 10/8 subnet.
func TrustedMatch(ip uint32) bool { return ip&trustedMask == trustedSubnet }

// Options configures a server build.
type Options struct {
	Kind      Kind
	Scheduler string // default "proportional-share"

	// Docs populates the file system (path -> content).
	Docs map[string][]byte

	// SynCapUntrusted bounds the untrusted passive path's SYN_RECVD
	// backlog (zero: unlimited); the trusted path's is unlimited.
	SynCapUntrusted int

	// QoSRateBps enables the stream service on port 81 at this rate.
	QoSRateBps int

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

	// Obs selects the observability sinks: event tracing (Chrome
	// trace_event JSON) and per-owner metrics sampling. Nil (the zero
	// value) disables everything at zero cost.
	Obs *obs.Config

	// Faults arms the spec's failpoints in the kernel; nil arms none,
	// and the fast path pays one nil test per guarded site. Network
	// faults are wired outside the server (the injector wraps the
	// segment the NIC attaches to), and the spec's defense entries
	// reach the server only through Defense; see ROBUSTNESS.md.
	Faults *fault.Spec

	// Defense arms the graceful-degradation and adaptive defenses. The
	// watchdog, the session reaper and the detector need accounting,
	// so base Scout arms only shedding and the puzzle gate. The zero
	// value arms none.
	Defense fault.Defense
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

	// Watchdog is the hung-path detector when Options.Defense enabled it.
	Watchdog *policy.Watchdog

	// Reaper is the idle/slow-session reaper when Options.Defense
	// enabled it.
	Reaper *policy.SessionReaper

	// Detector is the adaptive anomaly detector when Options.Defense
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
	if opt.FSCacheBudget == 0 {
		opt.FSCacheBudget = 16 << 20
	}
	accounting := opt.Kind != KindScout

	def := opt.Defense
	if !accounting {
		// The penalty box and the path-judging defenses feed on
		// accounted usage, which base Scout does not keep.
		def = def.WithoutAccounting()
		opt.PenaltyBox = false
	}
	o := obs.New(opt.Obs)
	if def.Detector && o.Metrics == nil {
		// The detector rides the metrics sampler's 10 ms tick. When no
		// metrics sink is configured, install a sink-less sampler so
		// arming the detector never changes whether sampling happens —
		// only who consumes the samples.
		o.Metrics = obs.NewSampler()
	}
	kcfg := kernel.Config{
		Accounting:    accounting,
		Scheduler:     opt.Scheduler,
		TotalPages:    totalPages,
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

	nic := netsim.NewNIC("server-eth0", ServerMAC)
	seg.Attach(nic)

	s := &Server{Kind: opt.Kind, K: k, NIC: nic, Obs: o}
	tcpDown, ipUp := "ip", "tcp" // tcp's open successor; ip's demux successor
	if opt.PortFilter {
		tcpDown, ipUp = "portfilter", "portfilter"
	}
	s.SCSI = scsi.New("fs")
	s.FS = fs.New("http", opt.FSCacheBudget)
	s.HTTP = httpmod.New("tcp")
	s.TCP = tcpmod.New(tcpDown, ServerIP)
	s.IP = ipmod.New(ipUp, "eth", ServerIP)
	s.ARP = arpmod.New("eth", ServerIP, ServerMAC)
	s.ETH = ethmod.New(nic, "ip", "arp")
	if opt.PortFilter {
		allowPort := func(port uint16) bool {
			return port == 80 || (opt.QoSRateBps > 0 && port == 81)
		}
		s.Filter = module.NewFilter("ip", "tcp",
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
	g.Connect("scsi", "fs")
	g.Connect("fs", "http")
	g.Connect("http", "tcp")
	if opt.PortFilter {
		g.Connect("tcp", "portfilter")
		g.Connect("portfilter", "ip")
	} else {
		g.Connect("tcp", "ip")
	}
	g.Connect("ip", "eth")
	g.Connect("arp", "eth")
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
	if def.Watchdog {
		s.Watchdog = policy.EnableWatchdog(k, mgr, 0)
	}
	if def.Shed > 0 {
		// Overload shedding: refuse new connections while page-pool
		// pressure sits above the high-water mark, so established paths
		// keep their memory during a fault storm.
		pages, mark := k.Pages(), def.Shed
		s.TCP.Shed = func() bool {
			return float64(pages.InUse()) >= mark*float64(pages.TotalPages())
		}
	}
	if def.PuzzleBits > 0 {
		// The puzzle gate refines shedding: instead of refusing every
		// new connection under pressure, admit the ones that pay.
		s.TCP.Puzzle = &tcpmod.PuzzleGate{Bits: def.PuzzleBits}
	}
	if def.Reaper {
		s.Reaper = policy.EnableSessionReaper(k, mgr, s.TCP, def.ReaperMinAge)
	}
	if def.Detector {
		s.Detector = policy.EnableDetector(k, mgr, s.TCP, s.TCP, o.Metrics)
		s.TCP.ShedSrc = s.Detector.SourceShed
	}

	if err := g.Init(mgr, mgr.DeliverInbound); err != nil {
		return nil, fmt.Errorf("escort: graph init: %w", err)
	}

	// The penalty passive path registers first so that demultiplexing
	// prefers it: an offender's SYN must not reach the regular
	// listeners.
	if opt.PenaltyBox {
		s.Penalty = policy.NewPenaltyBox(eng)
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
	// trust split is expressed twice, from the same subnet constants: as
	// a predicate for the module demux chain and as a masked prefix for
	// pattern demultiplexing.
	trustedAttrs := policy.PassiveAttrs(80, "trusted", TrustedMatch, 0, "scsi", nil)
	trustedAttrs[tcpmod.AttrTrustSubnet] = trustedSubnet
	trustedAttrs[tcpmod.AttrTrustMask] = trustedMask
	if _, err := mgr.Create(nil, "Passive SYN Path (trusted)", "tcp", trustedAttrs); err != nil {
		return nil, fmt.Errorf("escort: trusted passive path: %w", err)
	}
	untrustedAttrs := policy.PassiveAttrs(80, "untrusted",
		func(ip uint32) bool { return !TrustedMatch(ip) },
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
		qosAttrs := policy.PassiveAttrs(81, "qos", TrustedMatch, 0, "scsi", qosExtra)
		qosAttrs[tcpmod.AttrOnAccept] = policy.QoSOnAccept(qosTickets)
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

// Stop unwinds the kernel's threads (test hygiene) after taking a
// final metrics sample so the exported series covers the whole run.
func (s *Server) Stop() {
	m := s.K.Metrics()
	if m != nil {
		m.Final(s.K.Engine().Now())
	}
	s.K.Stop()
}

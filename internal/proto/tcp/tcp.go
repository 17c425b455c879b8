// Package tcp implements the TCP module of Figure 1: passive paths that
// field connection-establishment segments for listeners (partitioned by
// trust class, the SYN-defense mechanism of §4.4.1) and active paths
// that carry established connections, with a server-side state machine,
// slow-start/congestion-avoidance sending, and retransmission driven by
// the TCP master event — whose per-connection timeout processing is
// charged to the connection's path, exactly as Table 1 describes.
package tcp

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pathfinder"
	"repro/internal/proto/wire"
	"repro/internal/sim"

	ethmod "repro/internal/proto/eth"
)

// Attribute keys the TCP module understands (beyond the lib standard
// keys).
const (
	// AttrTrustMatch (func(uint32) bool) selects which source addresses a
	// passive path accepts.
	AttrTrustMatch = "tcp.trustMatch"
	// AttrSynCap (int) bounds the listener's outstanding SYN_RECVD paths;
	// excess SYNs are dropped at demux time.
	AttrSynCap = "tcp.synCap"
	// AttrActiveStart (string) names the module where active paths begin
	// their open walk (scsi in the web-server graph).
	AttrActiveStart = "tcp.activeStart"
	// AttrActiveExtra (lib.Attrs) is merged into active path attributes.
	AttrActiveExtra = "tcp.activeExtra"
	// AttrIRS (uint32) carries the peer's initial sequence number into
	// active path creation.
	AttrIRS = "tcp.irs"
	// AttrListener (*Listener) back-references the accepting listener.
	AttrListener = "tcp.listener"
	// AttrStream (bool) marks connections that stream indefinitely: the
	// server does not close after the first response write.
	AttrStream = "tcp.stream"
	// AttrOnAccept (func(module.PathRef)) runs after each active path the
	// listener creates — the QoS policy reserves scheduler share here.
	AttrOnAccept = "tcp.onAccept"
	// AttrTrustSubnet/AttrTrustMask (uint32) express the listener's trust
	// class as a masked prefix for pattern-based demultiplexing.
	AttrTrustSubnet = "tcp.trustSubnet"
	AttrTrustMask   = "tcp.trustMask"
)

// PatternTable is the pattern-demultiplexer surface the module drives:
// connection patterns are installed when active paths are created and
// removed at teardown; a listener's pattern is removed while its
// SYN_RECVD budget is exhausted (the drop policy as pattern absence).
type PatternTable interface {
	Add(*pathfinder.Pattern) error
	Remove(string) bool
}

// Connection states (server side).
const (
	StateSynRcvd = iota
	StateEstablished
	StateFinWait1 // our FIN sent, not yet acknowledged
	StateFinWait2 // our FIN acknowledged, awaiting peer FIN
	StateClosed
)

// Tuning constants. The initial window is one segment (pre-RFC3390
// TCP, as on the paper's testbed), which is what makes multi-segment
// documents congestion-control-limited with few parallel clients
// (Figure 8's 10 KB panel).
const (
	initialWindow = 1 * wire.MSS
	maxWindow     = 64 * 1024
	advertised    = 64000

	// tcbKmem is the TCB's kernel-memory charge against the connection
	// path's owner, held from CreateStage until the connection's close.
	tcbKmem = 256
)

// Listener is a passive path's registration: one per (port, trust
// class). The SynRecvd count lives here — passive-path state the policy
// consults during demultiplexing.
type Listener struct {
	Port       uint16
	TrustClass string
	Match      func(srcIP uint32) bool
	SynCap     int

	path  module.PathRef
	stage *passiveStage

	// SynRecvd is the number of active paths created by this listener
	// still in SYN_RECVD state.
	SynRecvd int

	subnet, mask uint32
	patInstalled bool
	mod          *Module

	// OnAccept, when non-nil, runs after each active path is created.
	OnAccept func(module.PathRef)

	// Accepted and DroppedSyn count demux outcomes for the experiments.
	Accepted   uint64
	DroppedSyn uint64
}

// Path returns the listener's passive path.
func (l *Listener) Path() module.PathRef { return l.path }

// Module is the TCP module.
type Module struct {
	name   string
	ipName string
	myIP   uint32

	node    *module.Node
	factory module.PathFactory
	k       *kernel.Kernel
	tracer  *obs.Tracer // resolved once at Init; nil when tracing is off

	conns     *lib.Hash // ConnKey -> *conn
	listeners []*Listener
	iss       uint32

	// Patterns, when non-nil, enables PATHFINDER-style demultiplexing:
	// the module keeps the table in sync with its connection state.
	Patterns PatternTable

	// OnOffender, when non-nil, is told the source address of every
	// connection whose path died abnormally (pathKill): the penalty-box
	// policy of §4.4.4 feeds on it.
	OnOffender func(srcIP uint32)

	// Shed, when non-nil, is consulted before each new connection is
	// accepted: a true return drops the SYN before the active path (and
	// its kmem) exists. The overload-shedding policy wires this to
	// kernel memory pressure. ShedCount counts the drops.
	Shed      func() bool
	ShedCount uint64

	// ShedSrc, when non-nil, is the per-source refinement of Shed: a
	// true return for a SYN's source address drops it at demux time,
	// before any listener or path work. The adaptive detector wires this
	// as its shed rung — surgical, per-offender, where Shed is global.
	// ShedSrcCount counts the drops.
	ShedSrc      func(srcIP uint32) bool
	ShedSrcCount uint64

	// Puzzle, when non-nil, refines shedding into a client-puzzle gate:
	// under shed pressure, SYNs carrying a puzzle solution are admitted
	// and the rest are rejected at a constant verify cost (§4.4.1's
	// drop policy with a pay-to-pass door).
	Puzzle *PuzzleGate

	// NoListener counts SYNs demultiplexed to ports nobody listens on
	// (the port-scan signature); Strays counts non-SYN segments that
	// match no connection (the ACK/FIN-flood signature). Both are demux
	// outcome counters like Listener.DroppedSyn.
	NoListener uint64
	Strays     uint64

	// demand is the per-source arrival ledger behind EachSrcDemand:
	// connection-demand segments (SYNs and strays — everything that is
	// not an established connection's traffic) counted by source
	// address. demandKeys preserves first-seen order so iteration is
	// deterministic.
	demand     map[uint32]*SrcDemand
	demandKeys []uint32

	// RTO is the initial retransmission timeout; PeerTimeout reaps a
	// connection that waits on a peer which acknowledges nothing new
	// for that long (conn.waiting); MasterPeriod is the master interval.
	RTO          sim.Cycles
	PeerTimeout  sim.Cycles
	MasterPeriod sim.Cycles

	// Counters for the experiment harness.
	Established uint64
	Completed   uint64
	Retransmits uint64
	Reaped      uint64
}

// New returns a TCP module for address myIP whose open walk continues
// at ipName.
func New(name, ipName string, myIP uint32) *Module {
	return &Module{
		name:   name,
		ipName: ipName,
		myIP:   myIP,
		conns:  lib.NewHash(256),
		RTO:    200 * sim.CyclesPerMillisecond,
		// Half-open connections persist as on contemporary stacks (~75 s
		// SYN_RCVD lifetime): under a flood the listener's budget fills
		// once and stays full, and everything beyond it is dropped at
		// demux time — the cheap steady state of §4.4.1.
		PeerTimeout:  75 * sim.CyclesPerSecond,
		MasterPeriod: 100 * sim.CyclesPerMillisecond,
	}
}

// Name implements module.Module.
func (m *Module) Name() string { return m.name }

// Listeners returns the registered listeners.
func (m *Module) Listeners() []*Listener { return m.listeners }

// OpenConns returns the number of connections in the demux table.
func (m *Module) OpenConns() int { return m.conns.Len() }

// Init implements module.Module: arm the TCP master event. The event
// belongs to the TCP module's protection domain conceptually; it gets a
// dedicated owner so the ledger shows the paper's "TCP Master Event"
// row directly (in Table 1 the master event is charged to the domain
// containing TCP, while per-connection timeout processing is charged to
// each connection's path).
func (m *Module) Init(ic *module.InitCtx) error {
	m.node = ic.Node
	m.factory = ic.Paths
	m.k = ic.K
	m.tracer = ic.K.Tracer()
	masterOwner := m.k.NewOwner("TCP Master Event", core.DomainOwner)
	m.k.RegisterEvent(masterOwner, "TCP Master Event", m.MasterPeriod, m.MasterPeriod, m.masterTick)
	return nil
}

// masterTick scans connections: scanning is charged to the TCP domain,
// while per-connection timeout *processing* is enqueued onto each
// connection's path so its cycles are charged there: at most one timer
// item per connection per tick, when it expired or its RTO is due.
func (m *Module) masterTick(ctx *kernel.Ctx) {
	model := m.k.Model()
	ctx.Use(model.TCPMasterEvent)
	now := ctx.Now()
	m.conns.Each(func(_ uint64, v any) {
		ctx.Use(model.TCPTimerPerConn)
		c := v.(*conn)
		if c.expired(now) || wire.SeqLT(c.sndUna, c.sndNxt) && now > c.rtoAt {
			_ = c.path.EnqueueControl(c.stageIdx, func(ctx *kernel.Ctx, _ module.Stage) {
				c.timer(ctx)
			})
		}
	})
}

// reapKilled is the kill hook of a connection's path (pathKill, or a
// create that failed after the TCB was made): report an open, established
// connection's abnormal death as an offender (§4.4.4) and release the
// connection while the owner can still take the refunds.
func (m *Module) reapKilled(c *conn) {
	if c.state != StateClosed {
		if m.OnOffender != nil && c.state != StateSynRcvd {
			m.OnOffender(c.remoteIP)
		}
		m.Reaped++
	}
	c.release()
}

func connPatternName(key uint64) string {
	return fmt.Sprintf("conn:%016x", key)
}

// syncPattern keeps the listener's presence in the pattern table in
// step with its SYN_RECVD budget: over budget, the pattern disappears
// and floods die on the (cheap) fallback reject; under budget, it is
// reinstalled.
func (l *Listener) syncPattern() {
	m := l.mod
	if m == nil || m.Patterns == nil || l.path == nil {
		return
	}
	over := l.SynCap > 0 && l.SynRecvd >= l.SynCap
	name := "listen:" + l.TrustClass
	switch {
	case over && l.patInstalled:
		m.Patterns.Remove(name)
		l.patInstalled = false
	case !over && !l.patInstalled:
		p := pathfinder.ListenerPattern(name, l.path, m.myIP, l.Port, l.subnet, l.mask)
		if l.mask != 0 {
			p.Priority = 5 // a real prefix outranks the wildcard class
		}
		if m.Patterns.Add(p) == nil {
			l.patInstalled = true
		}
	}
}

// CreateStage implements module.Module: a passive stage for listener
// paths, an active stage (with its connection record) otherwise.
func (m *Module) CreateStage(pb module.PathBuilder, attrs lib.Attrs) (module.Stage, string, error) {
	if attrs.Bool(lib.AttrPassive) {
		port, _ := attrs.Int(lib.AttrLocalPort)
		trust, _ := attrs.String(lib.AttrTrustClass)
		match, _ := attrs[AttrTrustMatch].(func(uint32) bool)
		cap, _ := attrs.Int(AttrSynCap)
		start, _ := attrs.String(AttrActiveStart)
		extra, _ := attrs[AttrActiveExtra].(lib.Attrs)
		onAccept, _ := attrs[AttrOnAccept].(func(module.PathRef))
		subnet, _ := attrs.Uint32(AttrTrustSubnet)
		mask, _ := attrs.Uint32(AttrTrustMask)
		l := &Listener{
			Port:       uint16(port),
			TrustClass: trust,
			Match:      match,
			SynCap:     cap,
			OnAccept:   onAccept,
			subnet:     subnet,
			mask:       mask,
			mod:        m,
		}
		st := &passiveStage{
			mod:         m,
			l:           l,
			h:           pb.Handle(),
			activeStart: start,
			activeExtra: extra,
			attrs:       lib.Attrs{},
		}
		l.stage = st
		l.path = pb.Handle().Path()
		m.listeners = append(m.listeners, l)
		l.syncPattern()
		return st, m.ipName, nil
	}

	remoteIP, _ := attrs.Uint32(lib.AttrRemoteIP)
	remotePort, _ := attrs.Int(lib.AttrRemotePort)
	localPort, _ := attrs.Int(lib.AttrLocalPort)
	irs, _ := attrs.Uint32(AttrIRS)
	listener, _ := attrs[AttrListener].(*Listener)

	m.iss += 64009
	now := pb.Kernel().Engine().Now()
	c := &conn{
		m:          m,
		path:       pb.Handle().Path(),
		h:          pb.Handle(),
		stageIdx:   pb.Handle().Index(),
		state:      StateSynRcvd,
		localIP:    m.myIP,
		remoteIP:   remoteIP,
		localPort:  uint16(localPort),
		remotePort: uint16(remotePort),
		irs:        irs,
		rcvNxt:     irs + 1,
		iss:        m.iss,
		sndUna:     m.iss,
		sndNxt:     m.iss,
		cwnd:       initialWindow,
		ssthresh:   maxWindow,
		peerWnd:    advertised,
		listener:   listener,
		streaming:  attrs.Bool(AttrStream),
		synRecvdAt: now,
		ackedAt:    now,
	}
	c.key = lib.ConnKey(c.localIP, c.localPort, c.remoteIP, c.remotePort)
	m.conns.Put(c.key, c)
	if m.Patterns != nil {
		_ = m.Patterns.Add(pathfinder.ConnectionPattern(
			connPatternName(c.key), c.path,
			c.localIP, c.localPort, c.remoteIP, c.remotePort))
	}
	if listener != nil {
		listener.SynRecvd++
		listener.syncPattern()
	}
	pb.PathOwner().ChargeKmem(tcbKmem) //escort:held TCB; refunded by close at connection teardown
	// pathKill runs no destructors, so the kill hook closes the
	// connection: the refund needs the owner still live.
	if kp, ok := c.path.(interface{ OnKill(func()) }); ok {
		kp.OnKill(func() { m.reapKilled(c) })
	}
	// Connection setup work (TCB init, sequence selection) belongs to
	// the connection's own path.
	m.k.Burn(pb.PathOwner(), m.k.Model().TCPConnSetup)
	return &activeStage{c: c}, m.ipName, nil
}

// Demux implements module.Module (§2.2, §4.4.1): established
// connections resolve through the connection table; SYNs resolve to the
// listener whose trust class matches the source address — and are
// dropped right here, as early as possible, when the listener's
// SYN_RECVD budget is exhausted. Demux charges nothing; its side
// effects are outcome counters, including the per-source demand
// ledger (first sight of a source allocates its counter entry).
func (m *Module) Demux(dc *module.DemuxCtx, mm *msg.Msg) module.Verdict {
	b := mm.Bytes()
	if len(b) < wire.EthLen+wire.IPv4Len+wire.TCPLen {
		return module.Reject("tcp: short segment")
	}
	iph := b[wire.EthLen:]
	srcIP := uint32(iph[12])<<24 | uint32(iph[13])<<16 | uint32(iph[14])<<8 | uint32(iph[15])
	tcph := b[wire.EthLen+wire.IPv4Len:]
	srcPort := uint16(tcph[0])<<8 | uint16(tcph[1])
	dstPort := uint16(tcph[2])<<8 | uint16(tcph[3])
	flags := tcph[13]

	key := lib.ConnKey(m.myIP, dstPort, srcIP, srcPort)
	if v, ok := m.conns.Get(key); ok {
		c := v.(*conn)
		if c.path.Alive() {
			return module.Found(c.path)
		}
	}
	if flags&wire.FlagSYN != 0 && flags&wire.FlagACK == 0 {
		m.noteDemand(srcIP, false)
		if m.ShedSrc != nil && m.ShedSrc(srcIP) {
			m.ShedSrcCount++
			if tr := m.tracer; tr != nil {
				tr.Policy("srcShed", "", lib.FormatIPv4(srcIP), m.k.Engine().Now())
			}
			return module.Reject("tcp: source shed")
		}
		l := m.findListener(dstPort, srcIP)
		if l == nil {
			m.NoListener++
			return module.Reject("tcp: no listener")
		}
		if l.SynCap > 0 && l.SynRecvd >= l.SynCap {
			l.DroppedSyn++
			if tr := m.tracer; tr != nil {
				tr.Policy("synCapDrop", l.path.PathName(), l.TrustClass, m.k.Engine().Now())
			}
			return module.Reject("tcp: SYN_RECVD budget exhausted")
		}
		return module.Found(l.path)
	}
	m.noteDemand(srcIP, true)
	m.Strays++
	return module.Reject("tcp: no connection")
}

// SrcDemand is one source address's cumulative connection-demand
// counters: SYN arrivals and stray (table-miss) segments. Established
// traffic is excluded — demand measures pressure to create or probe,
// not payload.
type SrcDemand struct {
	Syns   uint64
	Strays uint64
}

// noteDemand records one demand arrival from srcIP.
func (m *Module) noteDemand(srcIP uint32, stray bool) {
	if m.demand == nil {
		m.demand = make(map[uint32]*SrcDemand)
	}
	d, ok := m.demand[srcIP]
	if !ok {
		d = &SrcDemand{}
		m.demand[srcIP] = d
		m.demandKeys = append(m.demandKeys, srcIP)
	}
	if stray {
		d.Strays++
	} else {
		d.Syns++
	}
}

// EachSrcDemand calls fn for every source address that has shown
// connection demand, in first-seen order (deterministic for a
// deterministic run). The adaptive detector's arrival-rate feature
// reads this.
func (m *Module) EachSrcDemand(fn func(srcIP uint32, d SrcDemand)) {
	for _, ip := range m.demandKeys {
		fn(ip, *m.demand[ip])
	}
}

func (m *Module) findListener(port uint16, srcIP uint32) *Listener {
	for _, l := range m.listeners {
		if l.Port != port || !l.path.Alive() {
			continue
		}
		if l.Match == nil || l.Match(srcIP) {
			return l
		}
	}
	return nil
}

// passiveStage receives connection-setup segments (§4.3.1's passive
// path): it accepts SYNs, creates the active path that will serve the
// connection (charged to the passive path, per Table 1), and hands the
// handshake continuation to the new path.
type passiveStage struct {
	mod         *Module
	l           *Listener
	h           module.StageHandle
	activeStart string
	activeExtra lib.Attrs
	attrs       lib.Attrs // an accepted SYN's active-path attributes, refilled per SYN
	serial      uint64
}

// Deliver implements module.Stage.
func (s *passiveStage) Deliver(ctx *kernel.Ctx, dir module.Direction, mm *msg.Msg) (bool, error) {
	m := s.mod
	model := m.k.Model()
	ctx.Use(model.PktPerModule + sim.Cycles(mm.Len())*model.PerByte)
	if dir == module.Down {
		return true, nil
	}
	h, _, err := wire.ParseTCP(mm.Bytes(), mm.Net.SrcIP, mm.Net.DstIP)
	if err != nil {
		return false, err
	}
	if h.Flags&wire.FlagSYN == 0 || h.Flags&wire.FlagACK != 0 {
		return false, nil // only connection setup lands here
	}
	// A SYN retry queued behind the SYN that created its connection:
	// that connection's SYN-ACK answers it. One connection per 4-tuple.
	if _, dup := m.conns.Get(lib.ConnKey(m.myIP, s.l.Port, mm.Net.SrcIP, h.SrcPort)); dup {
		return false, nil
	}
	if s.l.SynCap > 0 && s.l.SynRecvd >= s.l.SynCap {
		s.l.DroppedSyn++
		if tr := m.tracer; tr != nil {
			tr.Policy("synCapDrop", s.l.path.PathName(), s.l.TrustClass, m.k.Engine().Now())
		}
		return false, nil
	}
	if m.Shed != nil && m.Shed() {
		// Under shed pressure a puzzle gate, when armed, replaces the
		// blanket drop: the verify is charged to the passive path, and
		// only SYNs proving client-side work get an active path.
		if g := m.Puzzle; g != nil {
			g.Checked++
			ctx.Use(DefaultPuzzleVerifyCost)
			if !wire.PuzzleSolved(mm.Net.SrcIP, h.Seq, g.Bits) {
				g.Rejected++
				if tr := m.tracer; tr != nil {
					tr.Policy("puzzleReject", s.l.path.PathName(), s.l.TrustClass, m.k.Engine().Now())
				}
				return false, nil
			}
			g.Passed++
		} else {
			m.ShedCount++
			if tr := m.tracer; tr != nil {
				tr.Policy("overloadShed", s.l.path.PathName(), s.l.TrustClass, m.k.Engine().Now())
			}
			return false, nil
		}
	}
	s.serial++
	// CreatePath's attributes are valid only for the call, so one map
	// serves every SYN this stage accepts.
	attrs := s.attrs
	clear(attrs)
	attrs[lib.AttrRemoteIP] = mm.Net.SrcIP
	attrs[lib.AttrRemotePort] = int(h.SrcPort)
	attrs[lib.AttrLocalPort] = int(s.l.Port)
	attrs[ethmod.AttrPeerMAC] = netsim.MAC(mm.Net.SrcMAC)
	attrs[AttrIRS] = h.Seq
	attrs[AttrListener] = s.l
	for k, v := range s.activeExtra {
		attrs[k] = v
	}
	// "Active Path <class>:<port>#<serial>", appended on the stack.
	var nb [64]byte
	name := append(append(nb[:0], "Active Path "...), s.l.TrustClass...)
	name = strconv.AppendUint(append(name, ':'), uint64(h.SrcPort), 10)
	name = strconv.AppendUint(append(name, '#'), s.serial, 10)
	ap, err := m.factory.CreatePath(ctx, string(name), s.activeStart, attrs)
	if err != nil {
		return false, fmt.Errorf("tcp: active path: %w", err)
	}
	s.l.Accepted++
	if s.l.OnAccept != nil {
		s.l.OnAccept(ap)
	}
	idx, ok := ap.FindStage(m.name)
	if !ok {
		return false, fmt.Errorf("tcp: active path lacks a %s stage", m.name)
	}
	// The SYN-ACK is sent by the active path's own thread, so its cycles
	// are charged to the connection.
	return false, ap.EnqueueControl(idx, func(ctx *kernel.Ctx, st module.Stage) {
		st.(*activeStage).c.sendSynAck(ctx)
	})
}

// Destroy implements module.Stage: deregister the listener.
func (s *passiveStage) Destroy(*kernel.Ctx) {
	for i, l := range s.mod.listeners {
		if l == s.l {
			s.mod.listeners = append(s.mod.listeners[:i], s.mod.listeners[i+1:]...)
			break
		}
	}
}

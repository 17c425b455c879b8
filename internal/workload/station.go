// Package workload implements the load generators of §4.1.2 as
// event-driven stations on the simulated network: regular clients
// (serial requests for one document), the QoS stream receiver, and the
// attackers — the SYN flood (1000 SYN/s, no handshake completion) and
// the runaway CGI (one request per second), plus the scenario library's
// attack classes. Stations deliberately have no CPU model: the paper provisions one client per PentiumPro exactly so
// the clients are never the bottleneck; only the server's cycles are
// under test.
package workload

import (
	"repro/internal/netsim"
	"repro/internal/proto/wire"
	"repro/internal/sim"
)

// Station is a network endpoint with a TCP-lite client stack: enough
// protocol to open connections, send one request, acknowledge data
// (with a delayed-ACK policy, the mechanism behind the paper's
// congestion-control-limited 10 KB results), and close.
type Station struct {
	Eng  *sim.Engine
	NIC  *netsim.NIC
	IP   uint32
	MAC  netsim.MAC
	Name string

	ServerIP  uint32
	serverMAC netsim.MAC
	resolved  bool
	onResolve []func()

	// DelAckThreshold acknowledges every Nth data segment immediately;
	// DelAckTimeout flushes a pending ACK. RFC-style defaults are set by
	// NewStation.
	DelAckThreshold int
	DelAckTimeout   sim.Cycles

	// SynRetry is the client SYN retransmission interval (zero disables).
	SynRetry sim.Cycles

	// ReqRetry retransmits the request while no response data has
	// arrived (a dropped request segment would otherwise hang the
	// connection until the client timeout).
	ReqRetry sim.Cycles

	// PuzzleBits, when non-zero, makes the station solve the server's
	// client puzzle before each SYN: the initial sequence number is
	// searched until it proves the required hash work (the legitimate
	// client's side of the shed-pressure gate). Attacker stations leave
	// it zero — refusing to pay is what gets them rejected.
	PuzzleBits uint

	conns    map[uint16]*peerConn // keyed by local port
	portSeq  uint16
	issSeq   uint32
	rng      *sim.Rand
	arpTries int
}

// NewStation creates a station and attaches its NIC to seg.
func NewStation(eng *sim.Engine, seg netsim.Attacher, name string, ip uint32, mac netsim.MAC, serverIP uint32, seed uint64) *Station {
	st := &Station{
		Eng:             eng,
		NIC:             netsim.NewNIC(name, mac),
		IP:              ip,
		MAC:             mac,
		Name:            name,
		ServerIP:        serverIP,
		DelAckThreshold: 2,
		DelAckTimeout:   20 * sim.CyclesPerMillisecond,
		SynRetry:        1000 * sim.CyclesPerMillisecond,
		ReqRetry:        1000 * sim.CyclesPerMillisecond,
		conns:           make(map[uint16]*peerConn),
		portSeq:         1024,
		rng:             sim.NewRand(seed),
	}
	st.NIC.Rx = st.rx
	seg.Attach(st.NIC)
	return st
}

// Resolve starts ARP resolution of the server and runs fn once the MAC
// is known (immediately if it already is).
func (s *Station) Resolve(fn func()) {
	if s.resolved {
		fn()
		return
	}
	s.onResolve = append(s.onResolve, fn)
	if len(s.onResolve) == 1 {
		s.sendARPRequest()
	}
}

func (s *Station) sendARPRequest() {
	s.NIC.Send(wire.ARPFrame(netsim.Broadcast, wire.ARP{
		Op: wire.ARPRequest, SenderMAC: s.MAC, SenderIP: s.IP, TargetIP: s.ServerIP,
	}))
	s.arpTries++
	if s.arpTries < 10 {
		s.Eng.After(100*sim.CyclesPerMillisecond, func() {
			if !s.resolved {
				s.sendARPRequest()
			}
		})
	}
}

// rx is the station's receive handler.
func (s *Station) rx(f netsim.Frame) {
	p, err := wire.ParsePacket(f.Data)
	if err != nil {
		return
	}
	if p.Eth.EtherType == wire.EtherTypeARP {
		s.rxARP(p.ARP)
		return
	}
	if c, ok := s.conns[p.TCP.DstPort]; ok && p.IP.Dst == s.IP && c.remotePort == p.TCP.SrcPort {
		c.input(p.TCP, p.Payload)
	}
}

func (s *Station) rxARP(a wire.ARP) {
	switch a.Op {
	case wire.ARPReply:
		if a.SenderIP == s.ServerIP {
			s.serverMAC = a.SenderMAC
			if !s.resolved {
				s.resolved = true
				fns := s.onResolve
				s.onResolve = nil
				for _, fn := range fns {
					fn()
				}
			}
		}
	case wire.ARPRequest:
		if a.TargetIP == s.IP {
			s.NIC.Send(wire.AnswerARP(a, s.MAC))
		}
	}
}

// nextPort allocates an ephemeral port.
func (s *Station) nextPort() uint16 {
	for {
		s.portSeq++
		if s.portSeq < 1024 {
			s.portSeq = 1024
		}
		if _, taken := s.conns[s.portSeq]; !taken {
			return s.portSeq
		}
	}
}

// sendTCP emits one segment to the server.
func (s *Station) sendTCP(localPort, remotePort uint16, flags byte, seq, ack uint32, payload []byte) {
	s.NIC.Send(wire.TCPFrame(
		wire.Eth{Dst: s.serverMAC, Src: s.MAC},
		wire.IPv4{ID: uint16(s.issSeq), Src: s.IP, Dst: s.ServerIP},
		wire.TCP{SrcPort: localPort, DstPort: remotePort, Seq: seq, Ack: ack, Flags: flags, Window: 64000},
		payload))
}

// Client connection states.
const (
	pcSynSent = iota
	pcEstablished
	pcLastAck
	pcDone
	pcFailed
)

// peerConn is the client side of one connection.
type peerConn struct {
	st         *Station
	localPort  uint16
	remotePort uint16
	state      int

	iss    uint32
	sndNxt uint32
	rcvNxt uint32

	request []byte

	bytesIn    int
	pendingAck int
	delackEv   sim.Event
	retryEv    sim.Event

	onData  func(n int)
	onClose func(success bool)
}

// open starts a connection to the server and sends request after the
// handshake.
func (s *Station) open(remotePort uint16, request []byte, onData func(int), onClose func(bool)) *peerConn {
	s.issSeq += 99991
	iss := s.issSeq
	if s.PuzzleBits > 0 {
		iss = wire.SolvePuzzle(s.IP, iss, s.PuzzleBits)
	}
	c := &peerConn{
		st:         s,
		localPort:  s.nextPort(),
		remotePort: remotePort,
		state:      pcSynSent,
		iss:        iss,
		request:    request,
		onData:     onData,
		onClose:    onClose,
	}
	c.sndNxt = c.iss + 1
	s.conns[c.localPort] = c
	c.sendSyn()
	return c
}

// sendRequest emits (or re-emits) the ACK+request segment.
func (c *peerConn) sendRequest() {
	c.st.sendTCP(c.localPort, c.remotePort, wire.FlagACK|wire.FlagPSH,
		c.iss+1, c.rcvNxt, c.request)
	c.sndNxt = c.iss + 1 + uint32(len(c.request))
}

// armReqRetry retransmits the request until response bytes arrive.
func (c *peerConn) armReqRetry() {
	if c.st.ReqRetry == 0 {
		return
	}
	c.retryEv = c.st.Eng.AfterArg(c.st.ReqRetry, reqRetry, c)
}

func reqRetry(a any) {
	c := a.(*peerConn)
	if c.state == pcEstablished && c.bytesIn == 0 {
		c.sendRequest()
		c.armReqRetry()
	}
}

func (c *peerConn) sendSyn() {
	c.st.sendTCP(c.localPort, c.remotePort, wire.FlagSYN, c.iss, 0, nil)
	if c.st.SynRetry > 0 {
		c.retryEv = c.st.Eng.AfterArg(c.st.SynRetry, synRetry, c)
	}
}

func synRetry(a any) {
	c := a.(*peerConn)
	if c.state == pcSynSent {
		c.sendSyn()
	}
}

// abandon abandons the connection (attacker cleanup, timeouts).
func (c *peerConn) abandon(success bool) {
	if c.state == pcDone || c.state == pcFailed {
		return
	}
	c.state = pcFailed
	c.cancelTimers()
	delete(c.st.conns, c.localPort)
	if c.onClose != nil {
		c.onClose(success)
	}
}

func (c *peerConn) cancelTimers() {
	c.st.Eng.Cancel(c.delackEv)
	c.delackEv = sim.Event{}
	c.st.Eng.Cancel(c.retryEv)
	c.retryEv = sim.Event{}
}

// input runs the client state machine on one received segment.
func (c *peerConn) input(h wire.TCP, payload []byte) {
	switch c.state {
	case pcSynSent:
		if h.Flags&wire.FlagSYN != 0 && h.Flags&wire.FlagACK != 0 && h.Ack == c.iss+1 {
			c.rcvNxt = h.Seq + 1
			c.state = pcEstablished
			c.st.Eng.Cancel(c.retryEv)
			c.retryEv = sim.Event{}
			c.sendRequest()
			c.armReqRetry()
		}
	case pcEstablished:
		if len(payload) > 0 {
			if h.Seq == c.rcvNxt {
				c.rcvNxt += uint32(len(payload))
				c.bytesIn += len(payload)
				if c.onData != nil {
					c.onData(len(payload))
				}
				c.deferAck()
			} else {
				c.ackNow() // out of order: duplicate ACK
			}
		}
		if h.Flags&wire.FlagFIN != 0 && h.Seq+uint32(len(payload)) == c.rcvNxt {
			c.rcvNxt++
			// ACK the FIN and send ours.
			c.cancelDelack()
			c.st.sendTCP(c.localPort, c.remotePort, wire.FlagFIN|wire.FlagACK,
				c.sndNxt, c.rcvNxt, nil)
			c.sndNxt++
			c.state = pcLastAck
		}
	case pcLastAck:
		if h.Flags&wire.FlagACK != 0 && h.Ack == c.sndNxt {
			c.state = pcDone
			c.cancelTimers()
			delete(c.st.conns, c.localPort)
			if c.onClose != nil {
				c.onClose(true)
			}
		}
	}
}

// deferAck implements the delayed-ACK policy.
func (c *peerConn) deferAck() {
	c.pendingAck++
	if c.pendingAck >= c.st.DelAckThreshold {
		c.ackNow()
		return
	}
	if c.delackEv.IsZero() {
		c.delackEv = c.st.Eng.AfterArg(c.st.DelAckTimeout, delackTimeout, c)
	}
}

func delackTimeout(a any) {
	c := a.(*peerConn)
	c.delackEv = sim.Event{}
	if c.pendingAck > 0 && c.state == pcEstablished {
		c.ackNow()
	}
}

func (c *peerConn) cancelDelack() {
	c.st.Eng.Cancel(c.delackEv)
	c.delackEv = sim.Event{}
	c.pendingAck = 0
}

func (c *peerConn) ackNow() {
	c.cancelDelack()
	c.st.sendTCP(c.localPort, c.remotePort, wire.FlagACK, c.sndNxt, c.rcvNxt, nil)
}

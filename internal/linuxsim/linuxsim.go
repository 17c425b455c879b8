// Package linuxsim models the paper's baseline: Apache 1.2.6 on RedHat
// 5.1 (Linux 2.0.34). The paper uses it only as a competitive reference
// point ("it does, however, demonstrate that we used a competitive web
// server"), so the model is a cost model, not a kernel: a single CPU
// queue through which every per-connection action passes, calibrated so
// the server saturates near half of base Scout's connection rate
// (Figure 8), plus the process kill/waitpid cost of Table 2. It speaks
// real TCP on the simulated network so the same client stations drive
// it.
package linuxsim

import (
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/proto/wire"
	"repro/internal/sim"
)

// Server is the Linux/Apache baseline.
type Server struct {
	Eng   *sim.Engine
	NIC   *netsim.NIC
	IP    uint32
	MAC   netsim.MAC
	Model *cost.Model

	Docs map[string][]byte

	busyUntil sim.Cycles
	busyTotal sim.Cycles

	conns map[uint64]*sconn
	iss   uint32

	// Completed counts served connections; Forks counts per-connection
	// processes; SynSeen counts connection attempts.
	Completed uint64
	Forks     uint64
	SynSeen   uint64
}

// Connection states.
const (
	lsSynRcvd = iota
	lsEstablished
	lsFinWait
	lsClosed
)

type sconn struct {
	s          *Server
	key        uint64
	peerIP     uint32
	peerMAC    netsim.MAC
	localPort  uint16
	remotePort uint16

	iss, sndUna, sndNxt uint32
	rcvNxt              uint32
	cwnd, peerWnd       int

	state   int
	resp    []byte
	respOff int // next unsent byte
	req     []byte
}

// New creates the baseline server and attaches it to seg.
func New(eng *sim.Engine, model *cost.Model, seg netsim.Attacher, ip uint32, mac netsim.MAC, docs map[string][]byte) *Server {
	s := &Server{
		Eng:   eng,
		NIC:   netsim.NewNIC("linux-eth0", mac),
		IP:    ip,
		MAC:   mac,
		Model: model,
		Docs:  docs,
		conns: make(map[uint64]*sconn),
	}
	s.NIC.Rx = s.rx
	seg.Attach(s.NIC)
	return s
}

// cpu serializes work through the single CPU: fn runs once the CPU has
// spent c cycles on it.
func (s *Server) cpu(c sim.Cycles, fn func()) {
	now := s.Eng.Now()
	start := s.busyUntil
	if start < now {
		start = now
	}
	s.busyUntil = start + c
	s.busyTotal += c
	s.Eng.AtTime(s.busyUntil, fn)
}

// KillProcess models Table 2's Linux row: the cycles from a parent
// issuing a kill signal until waitpid returns.
func (s *Server) KillProcess() sim.Cycles {
	c := s.Model.LinuxKill
	s.cpu(c, func() {})
	return c
}

func (s *Server) rx(f netsim.Frame) {
	p, err := wire.ParsePacket(f.Data)
	if err != nil {
		return
	}
	if p.Eth.EtherType == wire.EtherTypeARP {
		if p.ARP.Op == wire.ARPRequest && p.ARP.TargetIP == s.IP {
			s.NIC.Send(wire.AnswerARP(p.ARP, s.MAC))
		}
		return
	}
	if p.IP.Dst != s.IP {
		return
	}
	th := p.TCP
	key := lib.ConnKey(s.IP, th.DstPort, p.IP.Src, th.SrcPort)
	c, ok := s.conns[key]
	if !ok {
		if th.Flags&wire.FlagSYN != 0 && th.Flags&wire.FlagACK == 0 {
			s.SynSeen++
			s.iss += 777777
			c = &sconn{
				s:          s,
				key:        key,
				peerIP:     p.IP.Src,
				peerMAC:    p.Eth.Src,
				localPort:  th.DstPort,
				remotePort: th.SrcPort,
				iss:        s.iss,
				sndUna:     s.iss,
				sndNxt:     s.iss,
				rcvNxt:     th.Seq + 1,
				cwnd:       2 * wire.MSS,
				peerWnd:    int(th.Window),
				state:      lsSynRcvd,
			}
			s.conns[key] = c
			// SYN processing consumes kernel CPU before the SYN-ACK.
			s.cpu(s.Model.LinuxSynCost, func() {
				if c.state == lsSynRcvd {
					c.send(wire.FlagSYN|wire.FlagACK, c.iss, nil)
					c.sndNxt = c.iss + 1
				}
			})
		}
		return
	}
	c.input(th, p.Payload)
}

func (c *sconn) input(h wire.TCP, payload []byte) {
	s := c.s
	c.peerWnd = int(h.Window)
	if h.Flags&wire.FlagACK != 0 && wire.SeqLT(c.sndUna, h.Ack) && wire.SeqLEQ(h.Ack, c.sndNxt) {
		c.sndUna = h.Ack
		if c.cwnd < 64*1024 {
			c.cwnd += wire.MSS
		}
		if c.state == lsSynRcvd {
			c.state = lsEstablished
			s.Forks++ // Apache 1.2.6: process per connection
		}
		c.pump()
	}
	if len(payload) > 0 && h.Seq == c.rcvNxt {
		c.rcvNxt += uint32(len(payload))
		c.req = append(c.req, payload...)
		c.send(wire.FlagACK, c.sndNxt, nil)
		if c.resp == nil && strings.Contains(string(c.req), "\r\n\r\n") {
			c.serve()
		}
	}
	if h.Flags&wire.FlagFIN != 0 && h.Seq+uint32(len(payload)) == c.rcvNxt {
		c.rcvNxt++
		c.send(wire.FlagACK, c.sndNxt, nil)
		if c.state == lsFinWait {
			c.state = lsClosed
			delete(s.conns, c.key)
			s.Completed++
		}
	}
}

// serve runs the Apache request path through the CPU model, then queues
// the response.
func (c *sconn) serve() {
	s := c.s
	target := "/"
	if line, _, ok := strings.Cut(string(c.req), "\r\n"); ok {
		if parts := strings.Fields(line); len(parts) >= 2 {
			target = parts[1]
		}
	}
	body, ok := s.Docs[target]
	status := "200 OK"
	if !ok {
		status = "404 Not Found"
		body = []byte("not found")
	}
	work := s.Model.LinuxConnCost + sim.Cycles(len(body))*s.Model.LinuxPerByte
	s.cpu(work, func() {
		if c.state != lsEstablished {
			return
		}
		hdr := fmt.Sprintf("HTTP/1.0 %s\r\nServer: Apache/1.2.6\r\nContent-Length: %d\r\n\r\n", status, len(body))
		c.resp = append([]byte(hdr), body...)
		c.pump()
	})
}

// pump sends response segments within the window, then the FIN.
func (c *sconn) pump() {
	if c.resp == nil || (c.state != lsEstablished && c.state != lsFinWait) {
		return
	}
	window := c.cwnd
	if c.peerWnd < window {
		window = c.peerWnd
	}
	for {
		inFlight := int(c.sndNxt - c.sndUna)
		avail := window - inFlight
		if avail <= 0 {
			return
		}
		remaining := len(c.resp) - c.respOff
		if remaining <= 0 {
			if c.state == lsEstablished {
				c.send(wire.FlagFIN|wire.FlagACK, c.sndNxt, nil)
				c.sndNxt++
				c.state = lsFinWait
			}
			return
		}
		n := remaining
		if n > wire.MSS {
			n = wire.MSS
		}
		if n > avail {
			n = avail
		}
		c.send(wire.FlagACK|wire.FlagPSH, c.sndNxt, c.resp[c.respOff:c.respOff+n])
		c.sndNxt += uint32(n)
		c.respOff += n
	}
}

func (c *sconn) send(flags byte, seq uint32, payload []byte) {
	s := c.s
	s.NIC.Send(wire.TCPFrame(
		wire.Eth{Dst: c.peerMAC, Src: s.MAC},
		wire.IPv4{Src: s.IP, Dst: c.peerIP},
		wire.TCP{SrcPort: c.localPort, DstPort: c.remotePort, Seq: seq, Ack: c.rcvNxt, Flags: flags, Window: 32768},
		payload))
}

// OpenConns returns the live connection count.
func (s *Server) OpenConns() int { return len(s.conns) }

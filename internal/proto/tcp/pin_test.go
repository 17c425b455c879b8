package tcp_test

// Regression tests for the ways a peer could pin a server connection:
// each drives a raw peer on the hub through one hostile or merely
// unusual segment sequence and checks that the connection, its path
// and its SYN_RECVD slot all come back.

import (
	"bytes"
	"testing"

	"repro/internal/escort"
	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/proto/tcp"
	"repro/internal/proto/wire"
	"repro/internal/sim"
)

const (
	peerTimeout = 300 * sim.CyclesPerMillisecond
	request     = "GET /doc1 HTTP/1.0\r\n\r\n"
	request10k  = "GET /doc10k HTTP/1.0\r\n\r\n"
	openWindow  = 64000
)

// rawPeer is a hand-driven TCP endpoint on the hub: it sends exactly
// the segments a test asks for and records the in-order bytes the
// server sends back.
type rawPeer struct {
	e    *env
	nic  *netsim.NIC
	ip   uint32
	port uint16

	iss, sndNxt uint32 // our sequence space
	srvISS      uint32 // the server's, from its SYN-ACK
	rcvNxt      uint32 // next in-order server byte
	synAcks     int
	data        []byte // in-order response bytes
	fin         bool   // the server's FIN arrived in order
}

func newRawPeer(e *env, ip uint32, port uint16) *rawPeer {
	p := &rawPeer{e: e, ip: ip, port: port, iss: 5000 + uint32(port)<<8}
	p.nic = netsim.NewNIC("raw", netsim.MAC(0x0200_0000_0000|uint64(ip)<<16|uint64(port)))
	p.nic.Rx = p.rx
	e.hub.Attach(p.nic)
	return p
}

func (p *rawPeer) rx(f netsim.Frame) {
	pk, err := wire.ParsePacket(f.Data)
	if err != nil || pk.Eth.EtherType != wire.EtherTypeIPv4 || pk.TCP.DstPort != p.port {
		return
	}
	h := pk.TCP
	if h.Flags&wire.FlagSYN != 0 {
		p.srvISS, p.rcvNxt = h.Seq, h.Seq+1
		p.synAcks++
		return
	}
	if h.Seq != p.rcvNxt || p.fin {
		return
	}
	p.data = append(p.data, pk.Payload...)
	p.rcvNxt += uint32(len(pk.Payload))
	if h.Flags&wire.FlagFIN != 0 {
		p.rcvNxt++
		p.fin = true
	}
}

// send emits one segment at our next sequence number (a SYN at our
// ISS) and advances it past the payload and FIN.
func (p *rawPeer) send(flags byte, ack uint32, window uint16, payload string) {
	if flags&wire.FlagSYN != 0 {
		p.sndNxt = p.iss
	}
	p.nic.Send(wire.TCPFrame(
		wire.Eth{Dst: escort.ServerMAC, Src: p.nic.Mac},
		wire.IPv4{Src: p.ip, Dst: escort.ServerIP},
		wire.TCP{SrcPort: p.port, DstPort: 80, Seq: p.sndNxt, Ack: ack, Flags: flags, Window: window},
		[]byte(payload)))
	p.sndNxt += uint32(len(payload))
	if flags&(wire.FlagSYN|wire.FlagFIN) != 0 {
		p.sndNxt++
	}
}

// open sends a SYN, waits for the SYN-ACK and sends the handshake's
// final ACK.
func (p *rawPeer) open(t *testing.T, window uint16) {
	t.Helper()
	p.send(wire.FlagSYN, 0, window, "")
	p.e.srv.Run(20 * sim.CyclesPerMillisecond)
	if p.synAcks == 0 {
		t.Fatal("no SYN-ACK")
	}
	p.send(wire.FlagACK, p.srvISS+1, window, "")
}

// ackAll acknowledges everything received so far.
func (p *rawPeer) ackAll() { p.send(wire.FlagACK, p.rcvNxt, openWindow, "") }

func newPinEnv(t *testing.T, opt escort.Options) *env {
	t.Helper()
	opt.Docs = map[string][]byte{"/doc1": []byte("x"), "/doc10k": make([]byte, 10<<10)}
	e := newEnv(t, opt)
	e.srv.TCP.PeerTimeout = peerTimeout
	return e
}

// checkReaped runs past the peer timeout and checks that the server
// reaped every connection and that the ledger's containment holds.
func checkReaped(t *testing.T, e *env) {
	t.Helper()
	ledger := e.srv.K.Ledger()
	before := ledger.Snapshot(e.eng.Now())
	reaped := e.srv.TCP.Reaped
	e.srv.Run(4 * peerTimeout)
	if n := e.srv.TCP.OpenConns(); n != 0 || e.srv.TCP.Reaped == reaped {
		t.Fatalf("%d connections open and %d reaped, %d ms after the peer went quiet",
			n, e.srv.TCP.Reaped-reaped, 4*peerTimeout/sim.CyclesPerMillisecond)
	}
	if err := ledger.CheckContainment(before, ledger.Snapshot(e.eng.Now())); err != nil {
		t.Fatal(err)
	}
}

// Shape 1: a SYN, then a bare FIN, used to move a half-open connection
// out of SYN_RCVD without returning its slot; a few pairs filled the
// untrusted listener for good.
func TestPinSynThenBareFin(t *testing.T) {
	e := newPinEnv(t, escort.Options{SynCapUntrusted: 4})
	for i := 0; i < 4; i++ {
		p := newRawPeer(e, lib.IPv4(192, 168, 7, 1), uint16(2000+i))
		p.send(wire.FlagSYN, 0, openWindow, "")
		e.srv.Run(10 * sim.CyclesPerMillisecond)
		p.send(wire.FlagFIN, 0, openWindow, "")
	}
	e.srv.Run(4 * peerTimeout)
	if got := e.srv.Untrusted.SynRecvd; got != 0 {
		t.Fatalf("untrusted SynRecvd = %d after the timeout, want 0", got)
	}
	fresh := newRawPeer(e, lib.IPv4(192, 168, 7, 2), 3000)
	fresh.send(wire.FlagSYN, 0, openWindow, "")
	e.srv.Run(20 * sim.CyclesPerMillisecond)
	if fresh.synAcks == 0 {
		t.Fatal("a fresh untrusted SYN got no SYN-ACK")
	}
}

// Shape 2: the request and a FIN in one segment (an HTTP/1.0 client
// half-closing). The response must still go out, and the close finish.
func TestPinHalfCloseGetsResponse(t *testing.T) {
	e := newPinEnv(t, escort.Options{})
	p := newRawPeer(e, lib.IPv4(10, 0, 1, 7), 2000)
	p.open(t, openWindow)
	p.send(wire.FlagACK|wire.FlagPSH|wire.FlagFIN, p.srvISS+1, openWindow, request)
	e.srv.Run(50 * sim.CyclesPerMillisecond)
	p.ackAll()
	e.srv.Run(50 * sim.CyclesPerMillisecond)
	if !p.fin || !bytes.HasSuffix(p.data, []byte("\r\n\r\nx")) {
		t.Fatalf("got %q (FIN %v), want the response and a FIN", p.data, p.fin)
	}
	if e.srv.TCP.Completed != 1 || e.srv.TCP.OpenConns() != 0 {
		t.Fatalf("Completed = %d, %d connections open; want 1 and 0",
			e.srv.TCP.Completed, e.srv.TCP.OpenConns())
	}
}

// Shape 3: the peer requests 10 KB and then goes silent. Retransmission
// must not go on forever.
func TestPinSilentPeer(t *testing.T) {
	e := newPinEnv(t, escort.Options{})
	p := newRawPeer(e, lib.IPv4(10, 0, 1, 7), 2000)
	p.open(t, openWindow)
	p.send(wire.FlagACK|wire.FlagPSH, p.srvISS+1, openWindow, request10k)
	checkReaped(t, e)
}

// Shape 4: a request sent after the SYN but without an acceptable ACK
// (none, or one beyond the SYN-ACK) must not reach HTTP.
func TestPinBlindRequest(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags byte
		ack   func(p *rawPeer) uint32
	}{
		{"no ACK", wire.FlagPSH, func(*rawPeer) uint32 { return 0 }},
		{"wrong ACK", wire.FlagACK | wire.FlagPSH, func(p *rawPeer) uint32 { return p.srvISS + 1000 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newPinEnv(t, escort.Options{})
			p := newRawPeer(e, lib.IPv4(10, 0, 1, 7), 2000)
			p.send(wire.FlagSYN, 0, openWindow, "")
			e.srv.Run(20 * sim.CyclesPerMillisecond)
			p.send(tc.flags, tc.ack(p), openWindow, request)
			e.srv.Run(50 * sim.CyclesPerMillisecond)
			if e.srv.HTTP.Requests != 0 {
				t.Fatalf("HTTP served %d requests with %d connections established",
					e.srv.HTTP.Requests, e.srv.TCP.Established)
			}
		})
	}
}

// Shape 5: the peer acknowledges our FIN and never sends its own.
func TestPinFinWait2(t *testing.T) {
	e := newPinEnv(t, escort.Options{})
	p := newRawPeer(e, lib.IPv4(10, 0, 1, 7), 2000)
	p.open(t, openWindow)
	p.send(wire.FlagACK|wire.FlagPSH, p.srvISS+1, openWindow, request)
	e.srv.Run(50 * sim.CyclesPerMillisecond)
	if !p.fin {
		t.Fatal("no response FIN")
	}
	p.ackAll()
	e.srv.Run(20 * sim.CyclesPerMillisecond)
	e.srv.TCP.EachConn(func(cs tcp.ConnStats) {
		if cs.State != tcp.StateFinWait2 {
			t.Fatalf("state %d, want FIN_WAIT_2", cs.State)
		}
	})
	checkReaped(t, e)
}

// Shape 6: the peer advertises a zero window, so the response can
// never be sent.
func TestPinZeroWindow(t *testing.T) {
	e := newPinEnv(t, escort.Options{})
	p := newRawPeer(e, lib.IPv4(10, 0, 1, 7), 2000)
	p.open(t, 0)
	p.send(wire.FlagACK|wire.FlagPSH, p.srvISS+1, 0, request10k)
	checkReaped(t, e)
}

// Shape 7: a client's SYN retry queued in the passive path behind its
// first SYN must not build a second connection for the same 4-tuple.
func TestPinDuplicateSyn(t *testing.T) {
	e := newPinEnv(t, escort.Options{})
	p := newRawPeer(e, lib.IPv4(192, 168, 7, 1), 2000)
	p.send(wire.FlagSYN, 0, openWindow, "")
	p.send(wire.FlagSYN, 0, openWindow, "")
	e.srv.Run(50 * sim.CyclesPerMillisecond)
	active := 0
	for _, ap := range e.srv.Paths.Paths() {
		if ap.Alive() && bytes.HasPrefix([]byte(ap.PathName()), []byte("Active Path")) {
			active++
		}
	}
	if active != 1 || e.srv.Untrusted.SynRecvd != 1 || e.srv.TCP.OpenConns() != 1 {
		t.Fatalf("two SYNs for one 4-tuple: %d active paths, SynRecvd %d, %d table entries; want 1 each",
			active, e.srv.Untrusted.SynRecvd, e.srv.TCP.OpenConns())
	}
}

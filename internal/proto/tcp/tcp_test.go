package tcp_test

// The TCP module is exercised through a complete server assembly (the
// escort package's integration tests drive full conversations); the
// tests here pin down module-level behaviors: demultiplexing decisions,
// listener trust classes, SYN_RECVD budgets, and table hygiene —
// without a network.

import (
	"bytes"
	"testing"

	"repro/internal/cost"
	"repro/internal/escort"
	"repro/internal/fault"
	"repro/internal/lib"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/path"
	"repro/internal/proto/tcp"
	"repro/internal/proto/wire"
	"repro/internal/sim"
	"repro/internal/workload"
)

const mbps100 = 100_000_000

type env struct {
	eng *sim.Engine
	hub *netsim.Hub
	srv *escort.Server
}

func newEnv(t *testing.T, opt escort.Options) *env {
	t.Helper()
	opt.Kind = escort.KindAccounting
	return newKindEnv(t, opt)
}

// newKindEnv builds the server of opt.Kind.
func newKindEnv(t *testing.T, opt escort.Options) *env {
	t.Helper()
	eng := sim.New()
	hub := netsim.NewHub(eng, mbps100, 3000)
	if opt.Docs == nil {
		opt.Docs = map[string][]byte{"/doc1": []byte("x")}
	}
	srv, err := escort.NewServer(eng, cost.Default(), hub, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return &env{eng: eng, hub: hub, srv: srv}
}

// rawSegment builds a full eth+ip+tcp frame as a message, the shape the
// demux sees.
func rawSegment(e *env, srcIP uint32, srcPort, dstPort uint16, flags byte) *msg.Msg {
	f := wire.TCPFrame(wire.Eth{Dst: escort.ServerMAC, Src: 0x99}, wire.IPv4{Src: srcIP, Dst: escort.ServerIP},
		wire.TCP{SrcPort: srcPort, DstPort: dstPort, Seq: 1000, Flags: flags, Window: 8192}, nil)
	return msg.FromBytes(e.srv.K.KernelOwner(), f.Data)
}

func TestDemuxSynSelectsListenerByTrust(t *testing.T) {
	e := newEnv(t, escort.Options{})
	trustedIP := lib.IPv4(10, 0, 1, 1)
	untrustedIP := lib.IPv4(192, 168, 1, 1)

	m := rawSegment(e, trustedIP, 5000, 80, wire.FlagSYN)
	p, v := e.srv.Paths.Demux("eth", m)
	if p == nil {
		t.Fatalf("trusted SYN rejected: %v", v.Reason)
	}
	if p.PathName() != "Passive SYN Path (trusted)" {
		t.Fatalf("trusted SYN landed on %q", p.PathName())
	}
	m.Free()

	m = rawSegment(e, untrustedIP, 5000, 80, wire.FlagSYN)
	p, _ = e.srv.Paths.Demux("eth", m)
	if p == nil || p.PathName() != "Passive SYN Path (untrusted)" {
		t.Fatalf("untrusted SYN landed on %v", p)
	}
	m.Free()
}

func TestDemuxRejectsUnknownPortAndNonSyn(t *testing.T) {
	e := newEnv(t, escort.Options{})
	m := rawSegment(e, lib.IPv4(10, 0, 1, 1), 5000, 8080, wire.FlagSYN)
	if p, _ := e.srv.Paths.Demux("eth", m); p != nil {
		t.Fatal("SYN to closed port found a path")
	}
	m.Free()

	m = rawSegment(e, lib.IPv4(10, 0, 1, 1), 5000, 80, wire.FlagACK)
	if p, _ := e.srv.Paths.Demux("eth", m); p != nil {
		t.Fatal("bare ACK without connection found a path")
	}
	m.Free()
}

func TestDemuxEnforcesSynCap(t *testing.T) {
	e := newEnv(t, escort.Options{SynCapUntrusted: 2})
	l := e.srv.Untrusted
	l.SynRecvd = 2 // at budget
	m := rawSegment(e, lib.IPv4(192, 168, 1, 1), 5000, 80, wire.FlagSYN)
	if p, v := e.srv.Paths.Demux("eth", m); p != nil {
		t.Fatalf("over-budget SYN accepted: %v", v)
	}
	if l.DroppedSyn != 1 {
		t.Fatalf("dropped = %d", l.DroppedSyn)
	}
	m.Free()
	l.SynRecvd = 0
}

func TestSynRecvdReaping(t *testing.T) {
	// A half-open connection (handshake never completed) is reaped by
	// the master event after PeerTimeout.
	e := newEnv(t, escort.Options{})
	e.srv.TCP.PeerTimeout = 300 * sim.CyclesPerMillisecond
	atk := workload.NewSynAttacker(e.eng, e.hub, "atk",
		lib.IPv4(192, 168, 9, 9), netsim.MAC(0x0200_0000_9999), escort.ServerIP, 50, 3)
	atk.Start()
	e.srv.Run(400 * sim.CyclesPerMillisecond)
	atk.Stop()
	if e.srv.TCP.OpenConns() == 0 {
		t.Fatal("no half-open connections formed")
	}
	e.srv.Run(2 * sim.CyclesPerSecond)
	if e.srv.TCP.Reaped == 0 {
		t.Fatal("no half-open connections reaped")
	}
	if got := e.srv.TCP.OpenConns(); got != 0 {
		t.Fatalf("conn table still holds %d entries after reaping", got)
	}
	if e.srv.Untrusted.SynRecvd != 0 {
		t.Fatalf("SYN_RECVD count leaked: %d", e.srv.Untrusted.SynRecvd)
	}
}

func TestServerRetransmitsLostSynAck(t *testing.T) {
	// A client whose SYN-ACK answer is ignored re-sends its SYN; the
	// connection must still come up via the duplicate-SYN path.
	e := newEnv(t, escort.Options{})
	c := workload.NewClient(e.eng, e.hub, "c", lib.IPv4(10, 0, 1, 1),
		netsim.MAC(0x0200_0000_1001), escort.ServerIP, "/doc1", 1)
	c.SynRetry = 100 * sim.CyclesPerMillisecond
	c.Start()
	e.srv.Run(3 * sim.CyclesPerSecond)
	if c.Completed == 0 {
		t.Fatal("client never completed")
	}
}

func TestRetransmissionOnDataLoss(t *testing.T) {
	// Force data loss by making the client drop its first data segment:
	// simulate with a tiny delack threshold and a server RTO shorter
	// than the test window; the retransmit counter must move when ACKs
	// are slow. Easiest trigger: client with huge delack timeout.
	e := newEnv(t, escort.Options{Docs: map[string][]byte{"/big": make([]byte, 8192)}})
	e.srv.TCP.RTO = 50 * sim.CyclesPerMillisecond
	c := workload.NewClient(e.eng, e.hub, "c", lib.IPv4(10, 0, 1, 1),
		netsim.MAC(0x0200_0000_1001), escort.ServerIP, "/big", 1)
	c.DelAckThreshold = 100 // effectively never ack on count
	c.DelAckTimeout = 400 * sim.CyclesPerMillisecond
	c.MaxRequests = 1
	c.Start()
	e.srv.Run(4 * sim.CyclesPerSecond)
	if e.srv.TCP.Retransmits == 0 {
		t.Fatal("no retransmissions despite stalled ACKs")
	}
	if c.Completed == 0 {
		t.Fatal("transfer never completed despite retransmissions")
	}
}

func TestListenersVisible(t *testing.T) {
	e := newEnv(t, escort.Options{QoSRateBps: 1 << 20})
	if len(e.srv.TCP.Listeners()) != 3 {
		t.Fatalf("listeners = %d, want 3 (trusted, untrusted, qos)", len(e.srv.TCP.Listeners()))
	}
	if e.srv.Trusted == nil || e.srv.Untrusted == nil || e.srv.QoS == nil {
		t.Fatal("listener references not wired")
	}
	if e.srv.Trusted.Path() == nil {
		t.Fatal("listener path missing")
	}
}

// TestSharedPayloadSegmentsChecksum sniffs a multi-segment response off
// the wire. Every data segment is a Slice of the connection's Dup'd send
// buffer, so its backing is shared and pushing the TCP header moves the
// segment to a fresh backing while the checksum is computed over the
// payload still in the old one. Each emitted segment must pass
// wire.ParseTCP, and the payloads must reassemble into the document.
func TestSharedPayloadSegmentsChecksum(t *testing.T) {
	doc := make([]byte, 8192)
	for i := range doc {
		doc[i] = byte(i*7 + i>>8)
	}
	e := newEnv(t, escort.Options{Docs: map[string][]byte{"/big": doc}})
	var (
		iss      uint32
		stream   []byte
		segments int
	)
	sniff := netsim.NewNIC("sniff", 0x0200_0000_eeee)
	sniff.SetPromiscuous()
	sniff.Rx = func(f netsim.Frame) {
		if f.Src != escort.ServerMAC {
			return
		}
		p, err := wire.ParsePacket(f.Data)
		if p.Eth.EtherType != wire.EtherTypeIPv4 {
			return
		}
		if err != nil {
			t.Fatalf("server segment seq %d flags %#x: %v", p.TCP.Seq, p.TCP.Flags, err)
		}
		h, payload := p.TCP, p.Payload
		if h.Flags&wire.FlagSYN != 0 {
			iss = h.Seq
			return
		}
		if len(payload) == 0 {
			return
		}
		segments++
		off := int(h.Seq - iss - 1)
		if end := off + len(payload); end > len(stream) {
			stream = append(stream, make([]byte, end-len(stream))...)
		}
		copy(stream[off:], payload)
	}
	e.hub.Attach(sniff)
	c := workload.NewClient(e.eng, e.hub, "c", lib.IPv4(10, 0, 1, 1),
		netsim.MAC(0x0200_0000_1001), escort.ServerIP, "/big", 1)
	c.MaxRequests = 1
	c.Start()
	e.srv.Run(2 * sim.CyclesPerSecond)
	if c.Completed != 1 {
		t.Fatalf("client completed %d requests, want 1", c.Completed)
	}
	if segments < 2 {
		t.Fatalf("response went out in %d data segments, want several", segments)
	}
	if !bytes.HasSuffix(stream, doc) {
		t.Fatalf("reassembled %d payload bytes do not end with the %d-byte document", len(stream), len(doc))
	}
}

// TestPathDeathClosesConnection kills a connection's path by each route
// a path can die: pathKill, pathDestroy, the destruction of a
// protection domain the path crosses, and a create that fails after the
// TCP stage made its TCB. Each route closes the connection: the demux
// table keeps no entry whose path is dead, the listeners' SYN_RECVD
// counts match the half-open entries left, and no dead owner holds
// anything.
func TestPathDeathClosesConnection(t *testing.T) {
	// openPath returns the path of a connection part-way through its
	// response, so the path holds a send buffer as well as the TCB.
	openPath := func(t *testing.T, e *env) *path.Path {
		t.Helper()
		var p *path.Path
		e.srv.TCP.EachConn(func(cs tcp.ConnStats) {
			if p == nil && cs.State == tcp.StateEstablished && cs.BytesOut > 0 {
				p = e.srv.Paths.PathByOwner(cs.Path.PathOwner())
			}
		})
		if p == nil {
			t.Fatal("no connection is sending")
		}
		return p
	}
	for _, tc := range []struct {
		name string
		kind escort.Kind
		die  func(t *testing.T, e *env)
	}{
		{"Kill", escort.KindAccounting, func(t *testing.T, e *env) {
			e.srv.Paths.Kill(openPath(t, e))
		}},
		{"Destroy", escort.KindAccounting, func(t *testing.T, e *env) {
			e.srv.Paths.Destroy(nil, openPath(t, e))
		}},
		{"domain destroy", escort.KindAccountingPD, func(t *testing.T, e *env) {
			p := openPath(t, e)
			d, ok := e.srv.K.Domains().ByName("http")
			if !ok {
				t.Fatal("no http domain")
			}
			e.srv.K.Domains().Destroy(d)
			if p.Alive() {
				t.Fatal("the domain's destruction left a crossing path alive")
			}
		}},
		{"failed create", escort.KindAccounting, func(t *testing.T, e *env) {
			spawn := e.srv.K.FaultSet().Point("thread.spawn")
			e.srv.K.FaultSet().Arm("thread.spawn", fault.Trigger{Nth: spawn.Hits + 1})
			reaped := e.srv.TCP.Reaped
			e.srv.Run(200 * sim.CyclesPerMillisecond)
			if spawn.Fails != 1 || e.srv.TCP.Reaped != reaped+1 {
				t.Fatalf("spawn fails=%d reaped=%d: no create failed after its TCB was made",
					spawn.Fails, e.srv.TCP.Reaped-reaped)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The failed-create route arms the spawn failpoint; an
			// unreachable trigger makes the point exist.
			sp, err := fault.ParseSpec("fp:thread.spawn=n1000000000")
			if err != nil {
				t.Fatal(err)
			}
			e := newKindEnv(t, escort.Options{
				Kind:   tc.kind,
				Docs:   map[string][]byte{"/big": make([]byte, 64<<10)},
				Faults: sp,
			})
			ledger := e.srv.K.Ledger()
			before := ledger.Snapshot(e.eng.Now())
			for i := 0; i < 4; i++ {
				c := workload.NewClient(e.eng, e.hub, "c", lib.IPv4(10, 0, 1, byte(1+i)),
					netsim.MAC(0x0200_0000_1001+uint64(i)), escort.ServerIP, "/big", uint64(i)+1)
				c.Start()
			}
			e.srv.Run(30 * sim.CyclesPerMillisecond)
			tc.die(t, e)
			halfOpen := 0
			e.srv.TCP.EachConn(func(cs tcp.ConnStats) {
				if !cs.Path.Alive() {
					t.Errorf("conn table keeps %q, whose path is dead", cs.Path.PathName())
				}
				if cs.State == tcp.StateSynRcvd {
					halfOpen++
				}
			})
			synRecvd := 0
			for _, l := range e.srv.TCP.Listeners() {
				synRecvd += l.SynRecvd
			}
			if synRecvd != halfOpen {
				t.Errorf("listeners count %d SYN_RECVD, the table holds %d", synRecvd, halfOpen)
			}
			if err := ledger.CheckContainment(before, ledger.Snapshot(e.eng.Now())); err != nil {
				t.Error(err)
			}
		})
	}
}

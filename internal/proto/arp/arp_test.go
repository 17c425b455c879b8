package arp_test

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/escort"
	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/proto/arp"
	"repro/internal/proto/wire"
	"repro/internal/sim"
)

// The ARP module runs inside a full server; these tests drive it with
// raw frames on the simulated wire.

func newServer(t *testing.T) (*sim.Engine, *netsim.Hub, *escort.Server) {
	t.Helper()
	eng := sim.New()
	hub := netsim.NewHub(eng, 100_000_000, 3000)
	srv, err := escort.NewServer(eng, cost.Default(), hub, escort.Options{
		Kind: escort.KindAccounting,
		Docs: map[string][]byte{"/": []byte("x")},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return eng, hub, srv
}

func arpFrame(op uint16, senderMAC netsim.MAC, senderIP, targetIP uint32) netsim.Frame {
	buf := make([]byte, wire.EthLen+wire.ARPLen)
	wire.PutEth(buf, wire.Eth{Dst: netsim.Broadcast, Src: senderMAC, EtherType: wire.EtherTypeARP})
	wire.PutARP(buf[wire.EthLen:], wire.ARP{
		Op: op, SenderMAC: senderMAC, SenderIP: senderIP, TargetIP: targetIP,
	})
	return netsim.Frame{Dst: netsim.Broadcast, Src: senderMAC, Data: buf}
}

func TestARPRequestAnswered(t *testing.T) {
	_, hub, srv := newServer(t)
	probe := netsim.NewNIC("probe", 0x42)
	var replies []wire.ARP
	probe.Rx = func(f netsim.Frame) {
		eh, err := wire.ParseEth(f.Data)
		if err != nil || eh.EtherType != wire.EtherTypeARP {
			return
		}
		a, err := wire.ParseARP(f.Data[wire.EthLen:])
		if err == nil && a.Op == wire.ARPReply {
			replies = append(replies, a)
		}
	}
	hub.Attach(probe)

	probe.Send(arpFrame(wire.ARPRequest, 0x42, lib.IPv4(10, 0, 7, 7), escort.ServerIP))
	srv.Run(100 * sim.CyclesPerMillisecond)

	if len(replies) != 1 {
		t.Fatalf("replies = %d", len(replies))
	}
	r := replies[0]
	if r.SenderIP != escort.ServerIP || r.SenderMAC != escort.ServerMAC {
		t.Fatalf("reply binding: %+v", r)
	}
	if r.TargetMAC != 0x42 || r.TargetIP != lib.IPv4(10, 0, 7, 7) {
		t.Fatalf("reply addressing: %+v", r)
	}
	if srv.ARP.Replies != 1 {
		t.Fatalf("module reply counter = %d", srv.ARP.Replies)
	}
}

// arpHeap returns the bytes allocated in the ARP module's domain heap,
// where each learned address is charged.
func arpHeap(srv *escort.Server) int {
	return srv.Graph.MustNode("arp").Domain().Heap().Allocated()
}

func TestARPLearnsSenders(t *testing.T) {
	_, hub, srv := newServer(t)
	probe := netsim.NewNIC("probe", 0x77)
	hub.Attach(probe)
	before := arpHeap(srv)
	// Two requests from one sender: one entry, charged once.
	probe.Send(arpFrame(wire.ARPRequest, 0x77, lib.IPv4(10, 0, 7, 8), escort.ServerIP))
	probe.Send(arpFrame(wire.ARPRequest, 0x77, lib.IPv4(10, 0, 7, 8), escort.ServerIP))
	srv.Run(100 * sim.CyclesPerMillisecond)
	if srv.ARP.Learned != 1 {
		t.Fatalf("learned = %d, want 1", srv.ARP.Learned)
	}
	if got := arpHeap(srv) - before; got != arp.EntryKmem {
		t.Fatalf("cache charge = %d bytes, want %d", got, arp.EntryKmem)
	}
}

func TestARPIgnoresRequestsForOthers(t *testing.T) {
	eng, hub, srv := newServer(t)
	probe := netsim.NewNIC("probe", 0x42)
	got := 0
	probe.Rx = func(netsim.Frame) { got++ }
	hub.Attach(probe)
	probe.Send(arpFrame(wire.ARPRequest, 0x42, lib.IPv4(10, 0, 7, 7), lib.IPv4(10, 0, 0, 200)))
	srv.Run(100 * sim.CyclesPerMillisecond)
	if got != 0 {
		t.Fatalf("server answered an ARP request for someone else (%d frames)", got)
	}
	// Sender still learned (gratuitous learning).
	if srv.ARP.Learned != 1 {
		t.Fatal("sender not learned from ignored request")
	}
	_ = eng
}

func TestARPPathOwnsItsCycles(t *testing.T) {
	eng, hub, srv := newServer(t)
	probe := netsim.NewNIC("probe", 0x42)
	hub.Attach(probe)
	for i := 0; i < 10; i++ {
		probe.Send(arpFrame(wire.ARPRequest, 0x42, lib.IPv4(10, 0, 7, 7), escort.ServerIP))
	}
	srv.Run(200 * sim.CyclesPerMillisecond)
	snap := srv.K.Ledger().Snapshot(eng.Now())
	if snap.Cycles["ARP Path"] == 0 {
		t.Fatal("ARP processing not charged to the ARP path")
	}
}

func TestMalformedARPDropped(t *testing.T) {
	eng, hub, srv := newServer(t)
	probe := netsim.NewNIC("probe", 0x42)
	hub.Attach(probe)
	// Truncated ARP body.
	buf := make([]byte, wire.EthLen+10)
	wire.PutEth(buf, wire.Eth{Dst: netsim.Broadcast, Src: 0x42, EtherType: wire.EtherTypeARP})
	probe.Send(netsim.Frame{Dst: netsim.Broadcast, Src: 0x42, Data: buf})
	srv.Run(100 * sim.CyclesPerMillisecond)
	if srv.ARP.Replies != 0 {
		t.Fatal("malformed ARP answered")
	}
	_ = eng
}

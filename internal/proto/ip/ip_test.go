package ip

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/proto/wire"
	"repro/internal/sim"
)

var myIP = lib.IPv4(10, 0, 0, 1)

func newMod(t *testing.T) (*Module, *kernel.Kernel) {
	t.Helper()
	k := kernel.New(sim.New(), cost.Default(), kernel.Config{})
	t.Cleanup(k.Stop)
	m := New("tcp", "eth", myIP)
	g := module.NewGraph(k)
	g.Add("ip", m, "")
	if err := g.Init(nil, nil); err != nil {
		t.Fatal(err)
	}
	return m, k
}

func frame(dst uint32, proto byte) *msg.Msg {
	buf := make([]byte, wire.EthLen+wire.IPv4Len)
	wire.PutEth(buf, wire.Eth{EtherType: wire.EtherTypeIPv4})
	wire.PutIPv4(buf[wire.EthLen:], wire.IPv4{
		TotalLen: wire.IPv4Len, TTL: 64, Proto: proto,
		Src: lib.IPv4(10, 0, 0, 2), Dst: dst,
	})
	return msg.FromBytes(core.NewOwner("t", core.PathOwner), buf)
}

func TestDemuxAcceptsOurTCP(t *testing.T) {
	m, _ := newMod(t)
	f := frame(myIP, wire.ProtoTCP)
	if v := m.Demux(f); v.Kind != module.VerdictContinue || v.Next != "tcp" {
		t.Fatalf("verdict = %+v", v)
	}
	f.Free()
}

func TestDemuxRejectsForeignAddress(t *testing.T) {
	m, _ := newMod(t)
	f := frame(lib.IPv4(10, 0, 0, 99), wire.ProtoTCP)
	if v := m.Demux(f); v.Kind != module.VerdictReject {
		t.Fatalf("verdict = %+v", v)
	}
	f.Free()
}

func TestDemuxRejectsNonTCP(t *testing.T) {
	m, _ := newMod(t)
	f := frame(myIP, 17) // UDP
	if v := m.Demux(f); v.Kind != module.VerdictReject {
		t.Fatalf("verdict = %+v", v)
	}
	f.Free()
}

func TestDemuxRejectsShortAndBadVersion(t *testing.T) {
	m, _ := newMod(t)
	short := msg.FromBytes(core.NewOwner("t", core.PathOwner), make([]byte, 10))
	if v := m.Demux(short); v.Kind != module.VerdictReject {
		t.Fatal("short datagram accepted")
	}
	short.Free()
	f := frame(myIP, wire.ProtoTCP)
	f.Bytes()[wire.EthLen] = 0x60 // IPv6 version nibble
	if v := m.Demux(f); v.Kind != module.VerdictReject {
		t.Fatal("bad version accepted")
	}
	f.Free()
}

func TestRoutingTable(t *testing.T) {
	_, k := newMod(t)
	// Two routes, the local subnet and the default, each charged once.
	if got := k.Domains().Kernel().Heap().Allocated(); got != 2*routeKmem {
		t.Fatalf("routing table charge = %d bytes, want %d", got, 2*routeKmem)
	}
}

func TestRoutingTableChargedToDomain(t *testing.T) {
	m, k := newMod(t)
	_ = m
	// The routing table lives in the module's domain heap (the paper's
	// canonical module-global state example).
	if k.Domains().Kernel().Heap().Allocated() == 0 {
		t.Fatal("routing table not charged to the domain heap")
	}
}

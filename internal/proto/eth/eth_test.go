package eth_test

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/escort"
	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/proto/wire"
	"repro/internal/sim"
	"repro/internal/workload"
)

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

func TestUnknownEtherTypeRejected(t *testing.T) {
	_, hub, srv := newServer(t)
	probe := netsim.NewNIC("probe", 0x42)
	hub.Attach(probe)
	buf := make([]byte, 64)
	wire.PutEth(buf, wire.Eth{Dst: escort.ServerMAC, Src: 0x42, EtherType: 0x86DD}) // IPv6
	probe.Send(netsim.Frame{Dst: escort.ServerMAC, Src: 0x42, Data: buf})
	before := srv.Paths.DemuxRejects
	srv.Run(50 * sim.CyclesPerMillisecond)
	if srv.Paths.DemuxRejects != before+1 {
		t.Fatalf("rejects = %d, want +1", srv.Paths.DemuxRejects)
	}
}

func TestRuntFrameRejected(t *testing.T) {
	_, hub, srv := newServer(t)
	probe := netsim.NewNIC("probe", 0x42)
	hub.Attach(probe)
	probe.Send(netsim.Frame{Dst: escort.ServerMAC, Src: 0x42, Data: []byte{1, 2, 3}})
	srv.Run(50 * sim.CyclesPerMillisecond)
	if srv.Paths.DemuxRejects == 0 {
		t.Fatal("runt frame not rejected")
	}
}

func TestRxInterruptCounterAndTx(t *testing.T) {
	eng, hub, srv := newServer(t)
	c := workload.NewClient(eng, hub, "c",
		lib.IPv4(10, 0, 1, 1), 0x0200_0000_1001, escort.ServerIP, "/", 1)
	c.MaxRequests = 3
	c.Start()
	srv.Run(2 * sim.CyclesPerSecond)
	if c.Completed != 3 {
		t.Fatalf("completed = %d", c.Completed)
	}
	if srv.ETH.RxInterrupts == 0 {
		t.Fatal("no receive interrupts counted")
	}
	if srv.NIC.TxFrames == 0 || srv.NIC.TxBytes == 0 {
		t.Fatal("no transmissions counted")
	}
	// Every received frame raised exactly one interrupt.
	if srv.ETH.RxInterrupts != srv.NIC.RxFrames {
		t.Fatalf("interrupts %d != frames %d", srv.ETH.RxInterrupts, srv.NIC.RxFrames)
	}
}

// TestTransmittedFramesAreWhole sniffs every frame the server sends
// while serving a client: each must carry the header its Frame fields
// name and parse with valid checksums. Frame storage is pooled, so a
// byte the driver failed to write would hold an earlier frame's bytes.
func TestTransmittedFramesAreWhole(t *testing.T) {
	eng, hub, srv := newServer(t)
	sniff := netsim.NewNIC("sniff", 0x0200_0000_eeee)
	sniff.SetPromiscuous()
	frames := 0
	sniff.Rx = func(f netsim.Frame) {
		if f.Src != escort.ServerMAC {
			return
		}
		frames++
		p, err := wire.ParsePacket(f.Data)
		if err != nil || p.Eth.Dst != f.Dst || p.Eth.Src != f.Src {
			t.Errorf("server frame %v->%v: header %v->%v, parse error %v", f.Src, f.Dst, p.Eth.Src, p.Eth.Dst, err)
		}
	}
	hub.Attach(sniff)
	c := workload.NewClient(eng, hub, "c",
		lib.IPv4(10, 0, 1, 1), 0x0200_0000_1001, escort.ServerIP, "/", 1)
	c.MaxRequests = 3
	c.Start()
	srv.Run(2 * sim.CyclesPerSecond)
	if c.Completed != 3 || frames == 0 {
		t.Fatalf("completed %d requests over %d server frames", c.Completed, frames)
	}
}

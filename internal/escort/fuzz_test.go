package escort

import (
	"testing"

	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/proto/wire"
	"repro/internal/sim"
)

// FuzzDemux hands arbitrary bytes, as one received frame, to a live
// Accounting server with the port filter on, through a raw NIC on the
// hub, and runs it for 1 ms. Whatever the bytes, demultiplexing and
// the stages behind it must not panic, every frame the exchange made
// must be released (netsim.LiveFrames back where it started), and the
// ledger's containment must hold.
func FuzzDemux(f *testing.F) {
	const rawMAC = netsim.MAC(0x0200_0000_7777)
	rawIP := lib.IPv4(10, 0, 1, 77)
	frameBytes := func(fr netsim.Frame) []byte {
		b := append([]byte(nil), fr.Data...)
		fr.Release()
		return b
	}
	syn := frameBytes(wire.TCPFrame(
		wire.Eth{Dst: ServerMAC, Src: rawMAC},
		wire.IPv4{Src: rawIP, Dst: ServerIP},
		wire.TCP{SrcPort: 2000, DstPort: 80, Seq: 1, Flags: wire.FlagSYN, Window: 8192},
		nil))
	arp := frameBytes(wire.ARPFrame(netsim.Broadcast, wire.ARP{
		Op: wire.ARPRequest, SenderMAC: rawMAC, SenderIP: rawIP, TargetIP: ServerIP,
	}))
	f.Add(syn)
	f.Add(arp)
	f.Add(syn[:wire.EthLen-1])                          // truncated Ethernet header
	f.Add(syn[:wire.EthLen+wire.IPv4Len-1])             // truncated IPv4 header
	f.Add(syn[:wire.EthLen+wire.IPv4Len+wire.TCPLen-1]) // truncated TCP header
	f.Fuzz(func(t *testing.T, data []byte) {
		b := newBed(t, KindAccounting, Options{PortFilter: true})
		raw := netsim.NewNIC("raw", rawMAC)
		raw.Rx = func(netsim.Frame) {}
		b.hub.Attach(raw)
		live := netsim.LiveFrames()
		ledger := b.srv.K.Ledger()
		before := ledger.Snapshot(b.eng.Now())

		fr := netsim.NewFrame(ServerMAC, rawMAC, len(data))
		copy(fr.Data, data)
		raw.Send(fr)
		b.srv.Run(sim.CyclesPerMillisecond)

		if n := netsim.LiveFrames() - live; n != 0 {
			t.Errorf("%d frames still referenced 1 ms after the frame arrived", n)
		}
		if err := ledger.CheckContainment(before, ledger.Snapshot(b.eng.Now())); err != nil {
			t.Error(err)
		}
	})
}

package fault

import (
	"math/bits"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestInjectorBranchesReleaseFrames sends pooled frames through each
// branch of the network injector at probability 1 — loss by partition,
// flap and drop, corruption of an IPv4 and of an ARP frame, duplication,
// reordering and jitter, and their mixes — and checks what arrives and
// that, once the engine drains, no pooled frame is still referenced.
func TestInjectorBranchesReleaseFrames(t *testing.T) {
	const sent = 20
	forever := 1000 * sim.CyclesPerSecond
	cases := []struct {
		name    string
		cfg     NetConfig
		arp     bool
		copies  int  // deliveries per frame sent
		flipped bool // each delivery differs from the sent frame in one bit
	}{
		{"partition", NetConfig{PartitionFor: forever}, false, 0, false},
		{"flap", NetConfig{FlapPeriod: forever, FlapDown: forever}, false, 0, false},
		{"drop", NetConfig{Drop: 1}, false, 0, false},
		{"corrupt", NetConfig{Corrupt: 1}, false, 1, true},
		{"corrupt-arp", NetConfig{Corrupt: 1}, true, 0, false},
		{"dup", NetConfig{Dup: 1}, false, 2, false},
		{"reorder", NetConfig{Reorder: 1}, false, 1, false},
		{"jitter", NetConfig{Jitter: 1}, false, 1, false},
		{"dup-reorder", NetConfig{Dup: 1, Reorder: 1}, false, 2, false},
		{"corrupt-dup-jitter", NetConfig{Corrupt: 1, Dup: 1, Jitter: 1}, false, 2, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.New()
			hub := netsim.NewHub(eng, 100_000_000, 3000)
			in := NewNetInjector(eng, 7, c.cfg)
			a, b := netsim.NewNIC("a", 1), netsim.NewNIC("b", 2)
			got := 0
			b.Rx = func(f netsim.Frame) {
				got++
				flips, want := 0, 0
				for i, v := range f.Data {
					flips += bits.OnesCount8(v ^ sentByte(f.Data[0], i, c.arp))
				}
				if c.flipped {
					want = 1
				}
				if flips != want {
					t.Errorf("delivered frame differs from the sent one in %d bits, want %d", flips, want)
				}
			}
			in.WrapAttacher(hub).Attach(a)
			in.WrapAttacher(hub).Attach(b)
			before := netsim.LiveFrames()
			for id := byte(0); id < sent; id++ {
				f := netsim.NewFrame(2, 1, 100)
				for i := range f.Data {
					f.Data[i] = sentByte(id, i, c.arp)
				}
				a.Send(f)
			}
			eng.Drain(eng.Now() + 2*forever)
			if want := sent * c.copies; got != want {
				t.Errorf("delivered %d frames, want %d", got, want)
			}
			if n := netsim.LiveFrames() - before; n != 0 {
				t.Errorf("%d pooled frames still referenced after the engine drained", n)
			}
		})
	}
}

// sentByte is byte i of test frame id: an IPv4 or ARP EtherType at
// bytes 12-13 and id everywhere else. Corruption flips only bits past
// the Ethernet header, so byte 0 still names the frame.
func sentByte(id byte, i int, arp bool) byte {
	switch {
	case i == 12:
		return 0x08
	case i == 13 && arp:
		return 0x06
	case i == 13:
		return 0x00
	}
	return id
}

package netsim

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// The reference network below is the closure-per-frame form of the
// medium: every transmission schedules its own delivery closure. The
// lockstep test runs it beside the real hub/switch/bridge on an
// identical random load and requires the same delivery log, which is
// what the FIFO argument on medium promises.

type refMedium struct {
	eng        *sim.Engine
	cyclesPer8 sim.Cycles
	prop       sim.Cycles
	busyUntil  sim.Cycles
}

func newRefMedium(eng *sim.Engine, bps uint64, prop sim.Cycles) *refMedium {
	return &refMedium{eng: eng, cyclesPer8: sim.Cycles(uint64(sim.CyclesPerSecond) * 8 / bps), prop: prop}
}

func (m *refMedium) transmit(size int, deliver func()) {
	start := max(m.busyUntil, m.eng.Now())
	m.busyUntil = start + sim.Cycles(size)*m.cyclesPer8
	m.eng.AtTime(m.busyUntil+m.prop, deliver)
}

type refNIC struct {
	name    string
	mac     MAC
	promisc bool
	rx      func(Frame)
	send    func(Frame) // the attached segment's transmit
}

func (n *refNIC) Send(f Frame) {
	if len(f.Data) <= MaxFrame {
		n.send(f)
	}
}

func (n *refNIC) deliver(f Frame) {
	if f.Dst == n.mac || f.Dst == Broadcast || n.promisc {
		n.rx(f)
	}
}

type refHub struct {
	med  *refMedium
	nics []*refNIC
}

func (h *refHub) attach(n *refNIC) {
	h.nics = append(h.nics, n)
	n.send = func(f Frame) {
		h.med.transmit(len(f.Data), func() {
			for _, o := range h.nics {
				if o != n {
					o.deliver(f)
				}
			}
		})
	}
}

type refPort struct {
	nic            *refNIC
	toNIC, fromNIC *refMedium
}

type refSwitch struct {
	eng   *sim.Engine
	ports []*refPort
	table map[MAC]*refPort
}

func (s *refSwitch) attach(n *refNIC) {
	p := &refPort{nic: n, toNIC: newRefMedium(s.eng, mbps100, 100), fromNIC: newRefMedium(s.eng, mbps100, 100)}
	s.ports = append(s.ports, p)
	n.send = func(f Frame) {
		p.fromNIC.transmit(len(f.Data), func() { s.forward(p, f) })
	}
}

func (s *refSwitch) forward(in *refPort, f Frame) {
	s.table[f.Src] = in
	if f.Dst != Broadcast {
		if out, ok := s.table[f.Dst]; ok {
			if out != in {
				out.toNIC.transmit(len(f.Data), func() { out.nic.deliver(f) })
			}
			return
		}
	}
	for _, out := range s.ports {
		if out != in {
			out.toNIC.transmit(len(f.Data), func() { out.nic.deliver(f) })
		}
	}
}

// delivery is one line of a delivery log.
type delivery struct {
	at   sim.Cycles
	nic  string
	id   uint32
	size int
}

// sendOp is one scheduled transmission of the random load.
type sendOp struct {
	at   sim.Cycles
	from int
	dst  MAC
	size int
}

// lockstepLoad draws n random sends over the stations (indices into a
// topology's station list), in bursts so frames queue on every medium
// and the rings grow.
func lockstepLoad(seed uint64, n, stations int) []sendOp {
	r := sim.NewRand(seed)
	ops := make([]sendOp, n)
	at := sim.Cycles(0)
	for i := range ops {
		if r.Intn(4) == 0 {
			at += sim.Cycles(r.Intn(200_000))
		}
		dst := MAC(r.Intn(stations) + 1)
		switch r.Intn(8) {
		case 0:
			dst = Broadcast
		case 1:
			dst = 0xABC // nobody: the switch floods it
		}
		ops[i] = sendOp{at: at, from: r.Intn(stations), dst: dst, size: 4 + r.Intn(MaxFrame+40)}
	}
	return ops
}

func frameFor(i int, op sendOp) Frame {
	data := make([]byte, op.size)
	binary.LittleEndian.PutUint32(data, uint32(i))
	return Frame{Dst: op.dst, Src: MAC(op.from + 1), Data: data}
}

func frameID(f Frame) uint32 { return binary.LittleEndian.Uint32(f.Data) }

// Stations 0-2 sit on the hub and 3-6 on the switch; the bridge joins
// the two, as in Figure 7.
const hubStations, lockstepStations = 3, 7

func runRingNet(ops []sendOp) []delivery {
	eng := sim.New()
	hub := NewHub(eng, mbps100, 3000)
	sw := NewSwitch(eng, mbps100, 100)
	NewBridge("uplink", hub, sw, 0xFE, 0xFF)
	var log []delivery
	nics := make([]*NIC, lockstepStations)
	for i := range nics {
		n := NewNIC(fmt.Sprint("st", i), MAC(i+1))
		n.Rx = func(f Frame) { log = append(log, delivery{eng.Now(), n.Name, frameID(f), len(f.Data)}) }
		if i < hubStations {
			hub.Attach(n)
		} else {
			sw.Attach(n)
		}
		nics[i] = n
	}
	for i, op := range ops {
		eng.AtTime(op.at, func() { nics[op.from].Send(frameFor(i, op)) })
	}
	eng.Drain(1 << 50)
	return log
}

func runRefNet(ops []sendOp) []delivery {
	eng := sim.New()
	hub := &refHub{med: newRefMedium(eng, mbps100, 3000)}
	sw := &refSwitch{eng: eng, table: map[MAC]*refPort{}}
	a := &refNIC{name: "uplink:a", mac: 0xFE, promisc: true}
	b := &refNIC{name: "uplink:b", mac: 0xFF, promisc: true}
	hub.attach(a)
	sw.attach(b)
	a.rx = func(f Frame) { b.Send(f) }
	b.rx = func(f Frame) { a.Send(f) }
	var log []delivery
	nics := make([]*refNIC, lockstepStations)
	for i := range nics {
		n := &refNIC{name: fmt.Sprint("st", i), mac: MAC(i + 1)}
		n.rx = func(f Frame) { log = append(log, delivery{eng.Now(), n.name, frameID(f), len(f.Data)}) }
		if i < hubStations {
			hub.attach(n)
		} else {
			sw.attach(n)
		}
		nics[i] = n
	}
	for i, op := range ops {
		eng.AtTime(op.at, func() { nics[op.from].Send(frameFor(i, op)) })
	}
	eng.Drain(1 << 50)
	return log
}

// TestRingMatchesClosurePerFrame runs the ring-based network and the
// closure-per-frame reference in lockstep over random senders, sizes
// and destinations (unicast, broadcast, unknown, oversized) on the
// hub+switch+bridge topology, and requires identical (cycle, NIC,
// frame, bytes) delivery logs.
func TestRingMatchesClosurePerFrame(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		ops := lockstepLoad(seed, 400, lockstepStations)
		got, want := runRingNet(ops), runRefNet(ops)
		if len(want) == 0 {
			t.Fatalf("seed %d: the reference delivered nothing", seed)
		}
		if !slices.Equal(got, want) {
			n := min(len(got), len(want))
			i := 0
			for i < n && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: delivery logs diverge at entry %d of %d/%d: ring %+v, reference %+v",
				seed, i, len(got), len(want), at(got, i), at(want, i))
		}
	}
}

func at(log []delivery, i int) any {
	if i < len(log) {
		return log[i]
	}
	return "end of log"
}

// TestFrameForwardingDoesNotAllocate pins the allocation-free frame
// path: once the rings and the switch table are warm, a unicast frame
// from a switch station across the bridge to a hub station (three
// media, two forwarding hops) allocates nothing.
func TestFrameForwardingDoesNotAllocate(t *testing.T) {
	eng := sim.New()
	hub := NewHub(eng, mbps100, 3000)
	sw := NewSwitch(eng, mbps100, 100)
	NewBridge("uplink", hub, sw, 0xFE, 0xFF)
	server, client := NewNIC("server", 1), NewNIC("client", 2)
	got := 0
	server.Rx = func(Frame) { got++ }
	hub.Attach(server)
	sw.Attach(client)
	server.Send(Frame{Dst: Broadcast, Src: 1, Data: make([]byte, 60)})
	f := Frame{Dst: 1, Src: 2, Data: make([]byte, 600)}
	for i := 0; i < 16; i++ {
		client.Send(f) // a burst grows every ring on the path
	}
	eng.Drain(1 << 50)
	allocs := testing.AllocsPerRun(1000, func() {
		client.Send(f)
		eng.Drain(eng.Now() + sim.CyclesPerSecond)
	})
	if allocs != 0 {
		t.Fatalf("switch -> bridge -> hub forwarding allocates %.1f objects per frame, want 0", allocs)
	}
	if got != 16+1001 {
		t.Fatalf("server received %d frames, want %d", got, 16+1001)
	}
}

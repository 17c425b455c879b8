// Package netsim simulates the experimental network of Figure 7: a
// 100 Mbps Ethernet hub connecting the web server, the QoS receiver and
// the SYN attacker, and a store-and-forward switch carrying the client
// and CGI-attacker stations, bridged onto the hub. Frames serialize at
// link speed (the dominant network effect at these document sizes) and
// experience propagation delay; the hub is a single shared medium, the
// switch gives each port its own full-duplex link.
//
// Frame bytes come from a pool of reference-counted buffers (NewFrame).
// NIC.Send takes over the sender's reference, a frame in flight on a
// medium holds one until the receiving side's handling returns (so a
// hub delivers one buffer to every listener), and a switch port or the
// bridge takes one more before it transmits again. The buffer goes back
// to its pool when the last delivery ends, so receivers copy what they
// keep (see NIC.Rx).
package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// MAC is a 48-bit Ethernet address in the low bits.
type MAC uint64

// Broadcast is the all-ones Ethernet broadcast address.
const Broadcast MAC = 0xFFFFFFFFFFFF

// String renders the address in colon-hex.
//
//escort:coldpath diagnostic stringer, used by traces and tests
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		byte(m>>40), byte(m>>32), byte(m>>24), byte(m>>16), byte(m>>8), byte(m))
}

// Attacher is anything a NIC can attach to (hub or switch).
type Attacher interface {
	Attach(n *NIC)
}

// Segment is the transmission interface a NIC sends through; attaching
// to a hub binds the hub itself, attaching to a switch binds a per-port
// segment. Send takes over the caller's reference to f.
type Segment interface {
	Send(src *NIC, f Frame)
}

// NIC is a simulated network interface. Rx runs as the attached node's
// interrupt handler, inside the simulation event that delivers the
// frame.
type NIC struct {
	Name string
	Mac  MAC
	seg  Segment

	// Rx is invoked for each frame addressed to this NIC (or broadcast).
	// It keeps nothing of f past its return: the storage is shared with
	// the frame's other receivers and reused once the last of them
	// returns, so Rx copies what it keeps (the bridge, which sends f on,
	// Retains it first).
	Rx func(f Frame)

	// Counters.
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	TxDropped          uint64

	promisc bool
}

// NewNIC creates a NIC with the given name and address.
//
//escort:coldpath constructor, topology setup
func NewNIC(name string, mac MAC) *NIC {
	return &NIC{Name: name, Mac: mac}
}

// Send transmits a frame onto the attached segment, taking over the
// caller's reference to it. Oversized frames are dropped (and counted),
// as the hardware would; it reports whether the frame made it onto the
// wire so the driver layer can attribute the drop to the owner that
// produced the frame.
func (n *NIC) Send(f Frame) bool {
	if n.seg == nil {
		panic("netsim: send on detached NIC " + n.Name)
	}
	if len(f.Data) > MaxFrame {
		n.TxDropped++
		f.Release()
		return false
	}
	n.TxFrames++
	n.TxBytes += uint64(len(f.Data))
	n.seg.Send(n, f)
	return true
}

// Segment returns the segment the NIC is attached to (nil if detached).
func (n *NIC) Segment() Segment { return n.seg }

// SetSegment rebinds the NIC's transmission segment. Fault injectors use
// it to interpose on delivery: attach normally, then wrap the segment
// the attacher installed.
func (n *NIC) SetSegment(s Segment) { n.seg = s }

// arrive implements sink for a switch port's switch -> station medium.
func (n *NIC) arrive(_ *NIC, f Frame) { n.deliver(f) }

func (n *NIC) deliver(f Frame) {
	if f.Dst != n.Mac && f.Dst != Broadcast && !n.promisc {
		return
	}
	n.RxFrames++
	n.RxBytes += uint64(len(f.Data))
	if n.Rx != nil {
		n.Rx(f)
	}
}

// medium models one serialized transmission resource: a half-duplex
// shared wire (hub) or one direction of a switch port.
//
// Frames in flight wait in a ring. Every frame arrives at
// busyUntil+prop, busyUntil only grows and prop is fixed, so a medium's
// arrivals fall due in the order it transmitted them; equal-time events
// fire in schedule order, so the event that fires next always belongs
// to the frame at the ring's head. Each frame schedules exactly one
// event, at its arrival cycle, running arrive on the medium, so
// scheduling allocates nothing. Each ring slot holds one reference to
// its frame, dropped once the sink returns.
type medium struct {
	eng        *sim.Engine
	cyclesPer8 sim.Cycles // cycles per byte (8 bits)
	prop       sim.Cycles
	busyUntil  sim.Cycles

	// sink receives each frame as it finishes arriving: the hub (fan
	// out), a switch port (forward) or a station's NIC (deliver).
	sink sink

	ring []inflight // power-of-two size; frames in flight, oldest at head
	head int
	n    int
}

// sink is what a medium hands its arriving frames to. A sink that
// transmits the frame again Retains it first.
type sink interface {
	arrive(src *NIC, f Frame)
}

// inflight is one frame between transmit and its arrival.
type inflight struct {
	src *NIC
	f   Frame
}

func newMedium(eng *sim.Engine, bitsPerSec uint64, prop sim.Cycles, to sink) medium {
	if bitsPerSec == 0 {
		panic("netsim: zero bandwidth")
	}
	cyclesPerByte := sim.Cycles(uint64(sim.CyclesPerSecond) * 8 / bitsPerSec)
	if cyclesPerByte == 0 {
		cyclesPerByte = 1
	}
	return medium{eng: eng, cyclesPer8: cyclesPerByte, prop: prop, sink: to}
}

// transmit queues f behind the frames already on the medium and
// schedules its arrival at the time it finishes arriving. The ring slot
// takes over the caller's reference.
func (m *medium) transmit(src *NIC, f Frame) {
	now := m.eng.Now()
	start := m.busyUntil
	if start < now {
		start = now
	}
	txTime := sim.Cycles(len(f.Data)) * m.cyclesPer8
	m.busyUntil = start + txTime
	if m.n == len(m.ring) {
		m.grow()
	}
	m.ring[(m.head+m.n)&(len(m.ring)-1)] = inflight{src: src, f: f}
	m.n++
	m.eng.AtTimeArg(m.busyUntil+m.prop, arrive, m)
}

// arrive hands a medium's oldest frame in flight to its sink, then
// drops the slot's reference. The slot is cleared and released before
// the sink runs, so a sink that transmits again on the same medium sees
// a consistent ring.
func arrive(a any) {
	m := a.(*medium)
	slot := &m.ring[m.head]
	src, f := slot.src, slot.f
	*slot = inflight{}
	m.head = (m.head + 1) & (len(m.ring) - 1)
	m.n--
	m.sink.arrive(src, f)
	f.Release()
}

// grow doubles the ring, keeping the frames in flight in order.
func (m *medium) grow() {
	next := make([]inflight, max(2*len(m.ring), 2)) //escort:coldpath ring growth, bounded by the most frames ever in flight on this medium
	for i := 0; i < m.n; i++ {
		next[i] = m.ring[(m.head+i)&(len(m.ring)-1)]
	}
	m.ring, m.head = next, 0
}

// Hub is a shared-medium repeater: every frame occupies the single
// 100 Mbps wire and reaches every attached NIC except the sender.
type Hub struct {
	med  medium
	nics []*NIC
}

// NewHub returns a hub with the given bandwidth and propagation delay.
//
//escort:coldpath constructor, topology setup
func NewHub(eng *sim.Engine, bitsPerSec uint64, prop sim.Cycles) *Hub {
	h := &Hub{}
	h.med = newMedium(eng, bitsPerSec, prop, h)
	return h
}

// Attach implements Segment.
//
//escort:coldpath topology setup, once per NIC
func (h *Hub) Attach(n *NIC) {
	h.nics = append(h.nics, n)
	n.seg = h
}

// Send implements Segment.
func (h *Hub) Send(src *NIC, f Frame) { h.med.transmit(src, f) }

// arrive repeats a frame to every attached NIC but its sender.
func (h *Hub) arrive(src *NIC, f Frame) {
	for _, n := range h.nics {
		if n != src {
			n.deliver(f)
		}
	}
}

// Switch is a store-and-forward learning switch: each port is a
// full-duplex link with its own serialization in each direction.
type Switch struct {
	eng   *sim.Engine
	bps   uint64
	prop  sim.Cycles
	ports []*swPort
	table map[MAC]*swPort
}

type swPort struct {
	toNIC   medium // switch -> station; its sink is the station's NIC
	fromNIC medium // station -> switch; its sink is the port
	sw      *Switch
}

// NewSwitch returns a switch whose ports run at the given speed.
//
//escort:coldpath constructor, topology setup
func NewSwitch(eng *sim.Engine, bitsPerSec uint64, prop sim.Cycles) *Switch {
	return &Switch{eng: eng, bps: bitsPerSec, prop: prop, table: make(map[MAC]*swPort)}
}

// Attach implements Segment.
//
//escort:coldpath topology setup, once per NIC
func (s *Switch) Attach(n *NIC) {
	p := &swPort{sw: s}
	p.toNIC = newMedium(s.eng, s.bps, s.prop, n)
	p.fromNIC = newMedium(s.eng, s.bps, s.prop, p)
	s.ports = append(s.ports, p)
	n.seg = portSegment{p}
}

// arrive forwards a frame from the port's station once it reaches the
// switch.
func (p *swPort) arrive(_ *NIC, f Frame) { p.sw.forward(p, f) }

type portSegment struct{ p *swPort }

// Send implements Segment: station -> switch, then forward.
func (ps portSegment) Send(src *NIC, f Frame) { ps.p.fromNIC.transmit(src, f) }

// forward learns the sender's port and transmits f on the destination's
// port, or floods it; each output port holds its own reference.
func (s *Switch) forward(in *swPort, f Frame) {
	s.table[f.Src] = in
	if f.Dst != Broadcast {
		if out, ok := s.table[f.Dst]; ok {
			if out != in {
				f.Retain()
				out.toNIC.transmit(nil, f)
			}
			return
		}
	}
	// Flood unknown destinations and broadcasts.
	for _, out := range s.ports {
		if out != in {
			f.Retain()
			out.toNIC.transmit(nil, f)
		}
	}
}

// Bridge glues two segments together (the switch uplink into the hub in
// Figure 7). It forwards every frame from one side to the other; with a
// single bridge in the topology no loops can form.
type Bridge struct {
	a, b *NIC
}

// NewBridge creates the two bridge NICs and attaches them.
//
//escort:coldpath constructor, topology setup
func NewBridge(name string, segA, segB Attacher, macA, macB MAC) *Bridge {
	br := &Bridge{
		a: NewNIC(name+":a", macA),
		b: NewNIC(name+":b", macB),
	}
	br.a.SetPromiscuous()
	br.b.SetPromiscuous()
	segA.Attach(br.a)
	segB.Attach(br.b)
	br.a.Rx = func(f Frame) { f.Retain(); br.b.Send(f) }
	br.b.Rx = func(f Frame) { f.Retain(); br.a.Send(f) }
	return br
}

// SetPromiscuous makes the NIC receive every frame on its segment;
// bridges need frames not addressed to them.
func (n *NIC) SetPromiscuous() { n.promisc = true }

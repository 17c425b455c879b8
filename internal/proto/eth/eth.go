// Package eth implements the Ethernet device-driver module (ETH in
// Figure 1): the interrupt-time entry point of the receive path and the
// transmit tail of every outgoing path.
package eth

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/proto/wire"
	"repro/internal/sim"
)

// Attribute keys the driver understands.
const (
	// AttrPeerMAC (netsim.MAC) fixes the destination MAC of frames sent
	// down this path; active TCP paths learn it from the SYN frame.
	AttrPeerMAC = "eth.peerMAC"
	// AttrRaw (bool) marks paths (the ARP path) whose downgoing messages
	// already carry a complete Ethernet header.
	AttrRaw = "eth.raw"
)

// Module is the Ethernet driver bound to one simulated NIC.
type Module struct {
	nic     *netsim.NIC
	ipName  string // demux successor for IPv4
	arpName string // demux successor for ARP

	inbound module.InboundFn
	tracer  *obs.Tracer        // resolved once at Init; nil when tracing is off
	faults  *obs.FaultRegistry // per-owner fault counters; nil-safe

	// RxInterrupts counts receive interrupts taken.
	RxInterrupts uint64
	// TxDrops counts frames the device refused (oversize): previously
	// these vanished silently; now each drop is attributed to the
	// sending path's owner.
	TxDrops uint64
}

// New returns a driver for nic, demultiplexing IPv4 traffic to ipName
// and ARP traffic to arpName.
func New(nic *netsim.NIC, ipName, arpName string) *Module {
	return &Module{nic: nic, ipName: ipName, arpName: arpName}
}

// Init implements module.Module: it registers the receive interrupt
// handler. Each received frame costs the interrupt prologue (charged to
// the driver's domain) and is then demultiplexed from the driver's own
// node; the demux machinery charges the identified path.
func (m *Module) Init(ic *module.InitCtx) error {
	name := ic.Node.Name()
	if m.nic == nil {
		return fmt.Errorf("eth: module %q has no device", name)
	}
	m.inbound = ic.Inbound
	m.tracer = ic.K.Tracer()
	m.faults = ic.K.FaultCounters()
	domOwner := &ic.Node.Domain().Owner
	m.nic.Rx = func(f netsim.Frame) {
		m.RxInterrupts++
		mm := msg.FromBytes(domOwner, f.Data)
		if m.inbound != nil {
			m.inbound(name, mm)
		} else {
			mm.Free()
		}
	}
	return nil
}

// CreateStage implements module.Module. The driver is the last module
// opened on a path, so next is always "".
func (m *Module) CreateStage(pb module.PathBuilder, attrs lib.Attrs) (module.Stage, string, error) {
	st := &stage{
		mod: m,
		k:   pb.Kernel(),
		raw: attrs.Bool(AttrRaw),
	}
	if mac, ok := attrs[AttrPeerMAC].(netsim.MAC); ok {
		st.peer = mac
	}
	return st, "", nil
}

// Demux implements module.Module: dispatch on EtherType.
func (m *Module) Demux(mm *msg.Msg) module.Verdict {
	h, err := wire.ParseEth(mm.Bytes())
	if err != nil {
		return module.Reject("eth: " + err.Error())
	}
	switch h.EtherType {
	case wire.EtherTypeIPv4:
		return module.Continue(m.ipName)
	case wire.EtherTypeARP:
		return module.Continue(m.arpName)
	default:
		return module.Reject(fmt.Sprintf("eth: unknown ethertype %#x", h.EtherType))
	}
}

type stage struct {
	mod  *Module
	k    *kernel.Kernel
	peer netsim.MAC
	raw  bool
}

// Deliver implements module.Stage: strip the header on the way up,
// prepend it and transmit on the way down.
func (s *stage) Deliver(ctx *kernel.Ctx, dir module.Direction, mm *msg.Msg) (bool, error) {
	model := s.k.Model()
	ctx.Use(model.PktPerModule)
	if dir == module.Up {
		h, err := wire.ParseEth(mm.Bytes())
		if err != nil {
			return false, err
		}
		mm.Net.SrcMAC = uint64(h.Src)
		mm.Pop(wire.EthLen)
		return true, nil
	}
	// Down: frame out the device. The copy onto the (simulated) wire is
	// the per-byte cost.
	h := wire.Eth{Dst: s.peer, Src: s.mod.nic.Mac, EtherType: wire.EtherTypeIPv4}
	if s.raw {
		var err error
		if h, err = wire.ParseEth(mm.Bytes()); err != nil {
			return false, err
		}
	} else {
		wire.PutEth(mm.Push(wire.EthLen), h)
	}
	ctx.Use(sim.Cycles(mm.Len()) * model.PerByte)
	frame := netsim.NewFrame(h.Dst, h.Src, mm.Len())
	copy(frame.Data, mm.Bytes())
	if !s.mod.nic.Send(frame) {
		s.mod.TxDrops++
		owner := ctx.Owner().Name
		if tr := s.mod.tracer; tr != nil {
			tr.Fault("txDrop", owner, s.mod.nic.Name, ctx.Now())
		}
		s.mod.faults.Inc(owner)
	}
	return false, nil
}

// Destroy implements module.Stage.
func (s *stage) Destroy(*kernel.Ctx) {}

// Package ip implements the IP module of Figure 1. Its routing table is
// the paper's running example of module-global state: it cannot be
// charged to any single flow, so its memory is charged to the protection
// domain running the module, and a path executing IP code can read it —
// which is exactly why destroying the IP domain must destroy every path
// crossing it. The simulated server has one interface and routes
// nothing, so the table exists as its charge: Init takes two routes'
// bytes (the local subnet and the default) from the domain's heap.
package ip

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/proto/wire"
	"repro/internal/sim"
)

// routeKmem approximates one route's heap footprint.
const routeKmem = 48

// Module is the IP module.
type Module struct {
	tcpName string // demux successor
	ethName string // open-walk successor
	myIP    uint32

	ident uint16

	// Forwarded counts inbound datagrams passed upward; BadHeader counts
	// verification failures.
	Forwarded uint64
	BadHeader uint64
}

// New returns an IP module for address myIP: demux continues at tcpName
// and path creation continues at ethName.
func New(tcpName, ethName string, myIP uint32) *Module {
	return &Module{tcpName: tcpName, ethName: ethName, myIP: myIP}
}

// Init implements module.Module: charge the routing table's two routes
// (the local subnet and the default) to the domain's heap.
func (m *Module) Init(ic *module.InitCtx) error {
	heap := ic.Node.Domain().Heap()
	// An exhausted heap leaves a route uncharged; IP looks no route up.
	_, _ = heap.Alloc(routeKmem, nil)
	_, _ = heap.Alloc(routeKmem, nil)
	return nil
}

// CreateStage implements module.Module.
func (m *Module) CreateStage(pb module.PathBuilder, attrs lib.Attrs) (module.Stage, string, error) {
	st := &stage{mod: m, k: pb.Kernel(), localIP: m.myIP}
	if ip, ok := attrs.Uint32(lib.AttrRemoteIP); ok {
		st.remoteIP = ip
	}
	return st, m.ethName, nil
}

// Demux implements module.Module: verify the header cheaply and pass
// TCP datagrams for our address onward.
func (m *Module) Demux(mm *msg.Msg) module.Verdict {
	b := mm.Bytes()
	if len(b) < wire.EthLen+wire.IPv4Len {
		return module.Reject("ip: short datagram")
	}
	iph := b[wire.EthLen:]
	if iph[0] != 0x45 {
		return module.Reject("ip: bad version")
	}
	if iph[9] != wire.ProtoTCP {
		return module.Reject("ip: unsupported protocol")
	}
	dst := uint32(iph[16])<<24 | uint32(iph[17])<<16 | uint32(iph[18])<<8 | uint32(iph[19])
	if dst != m.myIP {
		return module.Reject("ip: not our address")
	}
	return module.Continue(m.tcpName)
}

type stage struct {
	mod      *Module
	k        *kernel.Kernel
	localIP  uint32
	remoteIP uint32
}

// Deliver implements module.Stage: verify+strip upward, prepend
// downward.
func (s *stage) Deliver(ctx *kernel.Ctx, dir module.Direction, mm *msg.Msg) (bool, error) {
	model := s.k.Model()
	ctx.Use(model.PktPerModule)
	if dir == module.Up {
		h, err := wire.ParseIPv4(mm.Bytes())
		if err != nil {
			s.mod.BadHeader++
			return false, err
		}
		if int(h.TotalLen) < wire.IPv4Len || int(h.TotalLen) > mm.Len() {
			s.mod.BadHeader++
			return false, fmt.Errorf("ip: total length %d outside [%d, %d]", h.TotalLen, wire.IPv4Len, mm.Len())
		}
		mm.Trim(int(h.TotalLen)) // drop link-layer padding
		mm.Net.SrcIP, mm.Net.DstIP = h.Src, h.Dst
		mm.Pop(wire.IPv4Len)
		s.mod.Forwarded++
		return true, nil
	}
	s.mod.ident++
	hdr := mm.Push(wire.IPv4Len)
	wire.PutIPv4(hdr, wire.IPv4{
		TotalLen: uint16(mm.Len()),
		ID:       s.mod.ident,
		TTL:      64,
		Proto:    wire.ProtoTCP,
		Src:      s.localIP,
		Dst:      s.remoteIP,
	})
	ctx.Use(sim.Cycles(wire.IPv4Len) * model.PerByte)
	return true, nil
}

// Destroy implements module.Stage.
func (s *stage) Destroy(*kernel.Ctx) {}

// Package arp implements the ARP module of Figure 1. Incoming ARP
// traffic is demultiplexed to a dedicated ARP path (created at module
// init — demux itself stays side-effect free, as the paper requires);
// the path's stage learns sender addresses and answers requests for the
// local address. The ARP cache exists as its charge: each newly learned
// address takes one entry's bytes from the module's domain heap (the
// canonical module-global state). Nothing looks a MAC up — replies
// answer the request's sender, and transmit paths carry their peer's
// MAC as a path attribute — so the module keeps only the set of
// addresses it has charged for.
package arp

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/proto/wire"

	ethmod "repro/internal/proto/eth"
)

// entryKmem approximates one ARP cache entry's heap footprint.
const entryKmem = 32

// Module is the ARP resolver for one interface.
type Module struct {
	ethName string
	myIP    uint32
	myMAC   netsim.MAC

	node  *module.Node
	known map[uint32]struct{} // learned addresses, each charged entryKmem
	path  module.PathRef

	// Replies and Learned count protocol activity.
	Replies uint64
	Learned uint64
}

// New returns an ARP module for the interface with the given address
// pair, sending replies through the eth module named ethName.
func New(ethName string, myIP uint32, myMAC netsim.MAC) *Module {
	return &Module{
		ethName: ethName,
		myIP:    myIP,
		myMAC:   myMAC,
		known:   make(map[uint32]struct{}),
	}
}

// Init implements module.Module: create the ARP path ([arp, eth]),
// which starts at the module's own node.
func (m *Module) Init(ic *module.InitCtx) error {
	m.node = ic.Node
	p, err := ic.Paths.CreatePath(nil, "ARP Path", ic.Node.Name(), lib.Attrs{ethmod.AttrRaw: true})
	if err != nil {
		return fmt.Errorf("arp: creating ARP path: %w", err)
	}
	m.path = p
	return nil
}

// PathRef returns the ARP path (for pattern registration).
func (m *Module) PathRef() module.PathRef { return m.path }

// CreateStage implements module.Module.
func (m *Module) CreateStage(pb module.PathBuilder, attrs lib.Attrs) (module.Stage, string, error) {
	return &stage{mod: m, h: pb.Handle()}, m.ethName, nil
}

// Demux implements module.Module: all ARP traffic belongs to the ARP
// path.
func (m *Module) Demux(mm *msg.Msg) module.Verdict {
	if m.path == nil || !m.path.Alive() {
		return module.Reject("arp: no ARP path")
	}
	return module.Found(m.path)
}

type stage struct {
	mod *Module
	h   module.StageHandle
}

// Deliver implements module.Stage: learn the sender, answer requests
// for our address.
func (s *stage) Deliver(ctx *kernel.Ctx, dir module.Direction, mm *msg.Msg) (bool, error) {
	m := s.mod
	k := ctx.Kernel()
	ctx.Use(k.Model().PktPerModule)
	if dir == module.Down {
		return true, nil
	}
	a, err := wire.ParseARP(mm.Bytes())
	if err != nil {
		return false, err
	}
	m.learn(a.SenderIP)
	if a.Op == wire.ARPRequest && a.TargetIP == m.myIP {
		m.Replies++
		reply := msg.New(&m.node.Domain().Owner, 0, wire.EthLen+wire.ARPLen)
		buf := make([]byte, wire.EthLen+wire.ARPLen)
		wire.PutEth(buf[:wire.EthLen], wire.Eth{Dst: a.SenderMAC, Src: m.myMAC, EtherType: wire.EtherTypeARP})
		wire.PutARP(buf[wire.EthLen:], wire.ARP{
			Op:        wire.ARPReply,
			SenderMAC: m.myMAC,
			SenderIP:  m.myIP,
			TargetMAC: a.SenderMAC,
			TargetIP:  a.SenderIP,
		})
		reply.Append(buf)
		return false, s.h.SendDown(ctx, reply)
	}
	return false, nil
}

// learn charges a newly seen sender's cache entry to the module's
// domain heap, where it stays for the module's lifetime.
func (m *Module) learn(ip uint32) {
	if ip == 0 {
		return
	}
	if _, known := m.known[ip]; known {
		return
	}
	m.known[ip] = struct{}{}
	// An exhausted heap leaves the entry uncharged but still learned.
	_, _ = m.node.Domain().Heap().Alloc(entryKmem, nil)
	m.Learned++
}

// Destroy implements module.Stage. The cache is module state, not path
// state, so nothing is released here.
func (s *stage) Destroy(*kernel.Ctx) {}

// Package scsi implements the SCSI disk-driver module of Figure 1: a
// simulated disk with seek/rotational latency and per-byte transfer
// time, serialized across requests. Reads block the calling path thread
// on a semaphore signaled by the completion event — the same kernel
// objects a real driver would use.
package scsi

import (
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/sim"
)

// BlockReader is the service interface the FS module binds to.
type BlockReader interface {
	// ReadBlocks simulates reading n bytes from disk, blocking the
	// calling thread for the device latency.
	ReadBlocks(ctx *kernel.Ctx, n int) error
}

// Module is the SCSI driver.
type Module struct {
	name   string
	fsName string

	k         *kernel.Kernel
	busyUntil sim.Cycles

	// Reads and BytesRead count device activity.
	Reads     uint64
	BytesRead uint64
}

// New returns a SCSI driver whose open walk continues at fsName.
func New(name, fsName string) *Module {
	return &Module{name: name, fsName: fsName}
}

// Name implements module.Module.
func (m *Module) Name() string { return m.name }

// Init implements module.Module.
func (m *Module) Init(ic *module.InitCtx) error {
	m.k = ic.K
	return nil
}

// CreateStage implements module.Module.
func (m *Module) CreateStage(pb module.PathBuilder, attrs lib.Attrs) (module.Stage, string, error) {
	return &stage{mod: m}, m.fsName, nil
}

// Demux implements module.Module: the disk is never a network entry.
func (m *Module) Demux(*module.DemuxCtx, *msg.Msg) module.Verdict {
	return module.Reject("scsi: not a network module")
}

type stage struct {
	mod *Module
}

var _ BlockReader = (*stage)(nil)

// ReadBlocks implements BlockReader.
func (s *stage) ReadBlocks(ctx *kernel.Ctx, n int) error {
	m := s.mod
	k := m.k
	model := k.Model()
	if err := ctx.Syscall(kernel.OpDeviceRead); err != nil {
		return err
	}
	m.Reads++
	m.BytesRead += uint64(n)

	sem := k.NewSemaphore(ctx.Owner(), 0)
	now := k.Engine().Now()
	start := m.busyUntil
	if start < now {
		start = now
	}
	done := start + model.DiskSeek + sim.Cycles(n)*model.DiskPerByte
	m.busyUntil = done
	k.Engine().AtTime(done, func() {
		sem.Signal(k.KernelOwner())
	})
	err := sem.P(ctx)
	sem.Destroy()
	return err
}

// Deliver implements module.Stage: the disk end of the path carries no
// message flow in this configuration.
func (s *stage) Deliver(ctx *kernel.Ctx, dir module.Direction, mm *msg.Msg) (bool, error) {
	return false, nil
}

// Destroy implements module.Stage.
func (s *stage) Destroy(*kernel.Ctx) {}

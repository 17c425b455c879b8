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

// Module is the SCSI driver. It keeps no per-path state, so every path
// shares the module itself as its stage.
type Module struct {
	fsName string

	k         *kernel.Kernel
	busyUntil sim.Cycles

	// Reads and BytesRead count device activity.
	Reads     uint64
	BytesRead uint64
}

// New returns a SCSI driver whose open walk continues at fsName.
func New(fsName string) *Module {
	return &Module{fsName: fsName}
}

// Init implements module.Module.
func (m *Module) Init(ic *module.InitCtx) error {
	m.k = ic.K
	return nil
}

// CreateStage implements module.Module.
func (m *Module) CreateStage(pb module.PathBuilder, attrs lib.Attrs) (module.Stage, string, error) {
	return m, m.fsName, nil
}

// Demux implements module.Module: the disk is never a network entry.
func (m *Module) Demux(*msg.Msg) module.Verdict {
	return module.Reject("scsi: not a network module")
}

var _ BlockReader = (*Module)(nil)

// ReadBlocks implements BlockReader.
func (m *Module) ReadBlocks(ctx *kernel.Ctx, n int) error {
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
func (m *Module) Deliver(ctx *kernel.Ctx, dir module.Direction, mm *msg.Msg) (bool, error) {
	return false, nil
}

// Destroy implements module.Stage.
func (m *Module) Destroy(*kernel.Ctx) {}

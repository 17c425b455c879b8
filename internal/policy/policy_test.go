package policy

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/path"
	"repro/internal/proto/tcp"
	"repro/internal/sim"
)

// spinMod is a single-module graph whose paths host runaway threads.
type spinMod struct{}

func (spinMod) Name() string               { return "spin" }
func (spinMod) Init(*module.InitCtx) error { return nil }
func (spinMod) CreateStage(pb module.PathBuilder, _ lib.Attrs) (module.Stage, string, error) {
	return spinStage{}, "", nil
}
func (spinMod) Demux(*module.DemuxCtx, *msg.Msg) module.Verdict { return module.Reject("x") }

type spinStage struct{}

func (spinStage) Deliver(*kernel.Ctx, module.Direction, *msg.Msg) (bool, error) {
	return false, nil
}
func (spinStage) Destroy(*kernel.Ctx) {}

func newEnv(t *testing.T) (*kernel.Kernel, *path.Manager) {
	t.Helper()
	k := kernel.New(sim.New(), cost.Default(), kernel.Config{
		Accounting:    true,
		MaxRunDefault: DefaultCGILimit,
	})
	t.Cleanup(k.Stop)
	g := module.NewGraph(k)
	g.Add("spin", spinMod{}, "")
	mgr := path.NewManager(g)
	if err := g.Init(mgr, nil); err != nil {
		t.Fatal(err)
	}
	return k, mgr
}

func TestContainmentKillsRunawayPath(t *testing.T) {
	k, mgr := newEnv(t)
	c := EnableContainment(k, mgr)
	p, err := mgr.Create(nil, "victim", "spin", lib.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	p.Spawn("runaway", func(ctx *kernel.Ctx) {
		for {
			ctx.Use(5000)
		}
	})
	k.RunFor(20 * sim.CyclesPerMillisecond)
	if c.Kills != 1 {
		t.Fatalf("kills = %d", c.Kills)
	}
	if p.Alive() {
		t.Fatal("runaway path survived")
	}
	if c.LastKillCycles == 0 || c.ReclaimedCycles != c.LastKillCycles {
		t.Fatalf("kill cost bookkeeping: last=%d reclaimed=%d", c.LastKillCycles, c.ReclaimedCycles)
	}
	// Detection happened at the 2ms budget, not later.
	if got := p.PathOwner().Counters.Cycles; got > 3*sim.CyclesPerMillisecond {
		t.Fatalf("runaway consumed %d cycles before containment", got)
	}
}

func TestContainmentOfNonPathOwner(t *testing.T) {
	k, mgr := newEnv(t)
	c := EnableContainment(k, mgr)
	aux := k.NewOwner("aux", core.DomainOwner)
	aux.Limits.MaxRunCycles = sim.CyclesPerMillisecond
	k.Spawn(aux, "spin", func(ctx *kernel.Ctx) {
		for {
			ctx.Use(5000)
		}
	}, kernel.SpawnOpts{})
	k.RunFor(20 * sim.CyclesPerMillisecond)
	if c.Kills != 1 || !aux.Dead() {
		t.Fatalf("non-path owner not contained: kills=%d dead=%v", c.Kills, aux.Dead())
	}
}

func TestPassiveAttrs(t *testing.T) {
	match := func(uint32) bool { return true }
	a := PassiveAttrs(80, "trusted", match, 64, "scsi", lib.Attrs{"x": 1})
	if !a.Bool(lib.AttrPassive) {
		t.Fatal("passive flag missing")
	}
	if port, _ := a.Int(lib.AttrLocalPort); port != 80 {
		t.Fatal("port")
	}
	if cap, _ := a.Int(tcp.AttrSynCap); cap != 64 {
		t.Fatal("cap")
	}
	if start, _ := a.String(tcp.AttrActiveStart); start != "scsi" {
		t.Fatal("start")
	}
	extra := a[tcp.AttrActiveExtra].(lib.Attrs)
	if extra["x"] != 1 {
		t.Fatal("extra attrs lost")
	}
}

func TestReserveShareSetsTicketsAndQuantum(t *testing.T) {
	k, mgr := newEnv(t)
	p, err := mgr.Create(nil, "stream", "spin", lib.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	ReserveShare(p, 9999)
	if kernel.OwnerShare(p.PathOwner()).Tickets != 9999 {
		t.Fatal("tickets not set")
	}
	if p.PathOwner().Limits.MaxRunCycles < 10*sim.CyclesPerMillisecond {
		t.Fatal("reservation did not extend the runtime quantum")
	}
	_ = k
}

func TestQoSOnAcceptHook(t *testing.T) {
	_, mgr := newEnv(t)
	p, _ := mgr.Create(nil, "s", "spin", lib.Attrs{})
	QoSOnAccept(777)(p)
	if kernel.OwnerShare(p.PathOwner()).Tickets != 777 {
		t.Fatal("hook did not reserve")
	}
}

func TestDemotePriority(t *testing.T) {
	_, mgr := newEnv(t)
	p, _ := mgr.Create(nil, "bad", "spin", lib.Attrs{})
	DemotePriority(p)
	sh := kernel.OwnerShare(p.PathOwner())
	if sh.Tickets != 1 || sh.Priority != 0 {
		t.Fatalf("demotion: tickets=%d prio=%d", sh.Tickets, sh.Priority)
	}
}

func TestLimitRuntime(t *testing.T) {
	o := core.NewOwner("x", core.PathOwner)
	LimitRuntime(o, 123)
	if o.Limits.MaxRunCycles != 123 {
		t.Fatal("limit not set")
	}
}

type fakeClock struct{ now sim.Cycles }

func (f *fakeClock) Now() sim.Cycles { return f.now }

func TestPenaltyBoxRecordAndExpiry(t *testing.T) {
	clk := &fakeClock{}
	pb := NewPenaltyBox(clk, 100)
	ip := lib.IPv4(10, 0, 2, 1)
	if pb.IsOffender(ip) {
		t.Fatal("empty box reports offender")
	}
	pb.Record(ip)
	if !pb.IsOffender(ip) || pb.Count() != 1 {
		t.Fatal("record lost")
	}
	clk.now = 50
	if !pb.IsOffender(ip) {
		t.Fatal("expired too early")
	}
	clk.now = 151
	if pb.IsOffender(ip) {
		t.Fatal("offender not forgiven after expiry")
	}
	if pb.Count() != 0 {
		t.Fatal("expired entry retained")
	}
	// Zero expiry: forever.
	pb2 := NewPenaltyBox(clk, 0)
	pb2.Record(ip)
	clk.now = 1 << 40
	if !pb2.IsOffender(ip) {
		t.Fatal("zero-expiry box forgave")
	}
}

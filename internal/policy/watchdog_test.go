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
	"repro/internal/sim"
)

// hangMod's stages park forever on a path-owned semaphore: the
// deterministic stand-in for a wedged driver or a lost wakeup. The
// path worker bumps Delivered before delivering, so once the first
// message wedges, further queued messages give the exact signature the
// watchdog hunts: pending work, frozen progress.
type hangMod struct{}

func (hangMod) Name() string               { return "hang" }
func (hangMod) Init(*module.InitCtx) error { return nil }
func (hangMod) CreateStage(pb module.PathBuilder, _ lib.Attrs) (module.Stage, string, error) {
	sem := pb.Kernel().NewSemaphore(pb.PathOwner(), "wedge", 0)
	return hangStage{sem: sem}, "", nil
}
func (hangMod) Demux(*module.DemuxCtx, *msg.Msg) module.Verdict { return module.Reject("x") }

type hangStage struct{ sem *kernel.Semaphore }

func (s hangStage) Deliver(ctx *kernel.Ctx, _ module.Direction, _ *msg.Msg) (bool, error) {
	_ = s.sem.P(ctx) // never signaled: the path is wedged
	return false, nil
}
func (s hangStage) Destroy(*kernel.Ctx) {}

// newWatchEnv is newEnv plus the hang module.
func newWatchEnv(t *testing.T) (*kernel.Kernel, *path.Manager) {
	t.Helper()
	k := kernel.New(sim.New(), cost.Default(), kernel.Config{
		Accounting:    true,
		MaxRunDefault: DefaultCGILimit,
	})
	t.Cleanup(k.Stop)
	g := module.NewGraph(k)
	g.Add("spin", spinMod{}, "")
	g.Add("hang", hangMod{}, "")
	mgr := path.NewManager(g)
	if err := g.Init(mgr, nil); err != nil {
		t.Fatal(err)
	}
	return k, mgr
}

func TestWatchdogEscalatesHungPath(t *testing.T) {
	k, mgr := newWatchEnv(t)
	const stall = 2 * sim.CyclesPerMillisecond
	w := EnableWatchdog(k, mgr, stall)

	hung, err := mgr.Create(nil, "hung", "hang", lib.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := mgr.Create(nil, "healthy", "spin", lib.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := hung.EnqueueIn(msg.FromBytes(hung.PathOwner(), []byte("x"))); err != nil {
			t.Fatal(err)
		}
		if err := healthy.EnqueueIn(msg.FromBytes(healthy.PathOwner(), []byte("x"))); err != nil {
			t.Fatal(err)
		}
	}

	// Demotion strictly precedes the kill: after one stall the path
	// runs on a minimal allocation, after a second it is gone.
	k.RunFor(stall + stall/2)
	if w.Demotions != 1 || w.Kills != 0 {
		t.Fatalf("after one stall: demotions=%d kills=%d, want 1/0", w.Demotions, w.Kills)
	}
	sh := kernel.OwnerShare(hung.PathOwner())
	if sh.Tickets != 1 || sh.Priority != 0 {
		t.Fatalf("demotion did not land: tickets=%d prio=%d", sh.Tickets, sh.Priority)
	}

	k.RunFor(10 * sim.CyclesPerMillisecond)
	if w.Kills != 1 {
		t.Fatalf("kills = %d, want 1", w.Kills)
	}
	if hung.Alive() {
		t.Fatal("hung path survived the watchdog")
	}
	if w.ReclaimedCycles == 0 {
		t.Fatal("pathKill cost not recorded")
	}
	// The healthy path drained its queue and is never touched.
	if !healthy.Alive() || healthy.PendingWork() != 0 {
		t.Fatalf("healthy path: alive=%v pending=%d", healthy.Alive(), healthy.PendingWork())
	}
	if w.Demotions != 1 {
		t.Fatalf("demotions = %d; watchdog flagged a path that made progress", w.Demotions)
	}
}

func TestWatchdogIgnoresIdlePaths(t *testing.T) {
	// No pending work means no hang, however long progress stays flat:
	// an idle path is not a stuck path.
	k, mgr := newWatchEnv(t)
	w := EnableWatchdog(k, mgr, sim.CyclesPerMillisecond)
	idle, err := mgr.Create(nil, "idle", "hang", lib.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	k.RunFor(50 * sim.CyclesPerMillisecond)
	if w.Demotions != 0 || w.Kills != 0 || !idle.Alive() {
		t.Fatalf("idle path escalated: demotions=%d kills=%d alive=%v",
			w.Demotions, w.Kills, idle.Alive())
	}
}

func TestPenaltyBoxExponentialBackoff(t *testing.T) {
	clk := &fakeClock{}
	pb := NewPenaltyBox(clk, 100)
	ip := lib.IPv4(10, 0, 2, 1)

	// Strike 1: boxed for the base expiry, then forgiven — but the
	// strike survives the forgiveness.
	pb.Record(ip)
	clk.now = 101
	if pb.IsOffender(ip) {
		t.Fatal("first offense outlived the base expiry")
	}
	if pb.Strikes(ip) != 1 {
		t.Fatalf("strikes = %d after expiry, want 1 (retained)", pb.Strikes(ip))
	}

	// Strike 2: the re-admission backoff doubles the box time.
	pb.Record(ip)
	clk.now = 101 + 200
	if !pb.IsOffender(ip) {
		t.Fatal("second offense did not double the box time")
	}
	clk.now = 101 + 201
	if pb.IsOffender(ip) {
		t.Fatal("second offense boxed longer than 2x expiry")
	}

	// Strike 3: doubled again.
	at := clk.now
	pb.Record(ip)
	clk.now = at + 400
	if !pb.IsOffender(ip) {
		t.Fatal("third offense did not quadruple the box time")
	}
	if pb.Strikes(ip) != 3 {
		t.Fatalf("strikes = %d, want 3", pb.Strikes(ip))
	}

	// The backoff caps: pile on strikes far past maxBackoffShift and
	// the box time stays Expiry << (maxBackoffShift-1).
	for i := 0; i < 40; i++ {
		pb.Record(ip)
	}
	at = clk.now
	capped := sim.Cycles(100) << (maxBackoffShift - 1)
	clk.now = at + capped
	if !pb.IsOffender(ip) {
		t.Fatal("capped backoff shorter than expected")
	}
	clk.now = at + capped + 1
	if pb.IsOffender(ip) {
		t.Fatal("backoff kept growing past the cap")
	}
}

func TestLimitRuntimeEdges(t *testing.T) {
	const limit = sim.CyclesPerMillisecond
	cases := []struct {
		name   string
		limit  sim.Cycles
		run    func(ctx *kernel.Ctx)
		killed bool
	}{
		{
			// Zero disables detection entirely (the Scout baseline):
			// long bursts without a yield pass unnoticed.
			name:  "zero limit disables detection",
			limit: 0,
			run: func(ctx *kernel.Ctx) {
				for i := 0; i < 20; i++ {
					ctx.Use(10 * limit)
				}
			},
			killed: false,
		},
		{
			// Landing exactly on the limit is legal: the trip
			// condition is strictly past the quantum.
			name:  "exactly at limit survives",
			limit: limit,
			run: func(ctx *kernel.Ctx) {
				for i := 0; i < 5; i++ {
					ctx.Use(limit)
					ctx.Yield()
				}
			},
			killed: false,
		},
		{
			name:  "one cycle past limit trips",
			limit: limit,
			run: func(ctx *kernel.Ctx) {
				ctx.Use(limit)
				ctx.Use(1)
			},
			killed: true,
		},
		{
			// A yield resets the budget: two near-limit bursts with a
			// yield between them are two legal quanta, not one runaway.
			name:  "yield resets the budget",
			limit: limit,
			run: func(ctx *kernel.Ctx) {
				ctx.Use(limit - 1)
				ctx.Yield()
				ctx.Use(limit - 1)
			},
			killed: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, mgr := newEnv(t)
			c := EnableContainment(k, mgr)
			o := k.NewOwner("probe", core.DomainOwner)
			LimitRuntime(o, tc.limit)
			if o.Limits.MaxRunCycles != tc.limit {
				t.Fatalf("limit not set: %d", o.Limits.MaxRunCycles)
			}
			k.Spawn(o, "probe", tc.run, kernel.SpawnOpts{})
			k.RunFor(100 * sim.CyclesPerMillisecond)
			if killed := c.Kills > 0; killed != tc.killed {
				t.Fatalf("kills=%d dead=%v, want killed=%v", c.Kills, o.Dead(), tc.killed)
			}
			if o.Dead() != tc.killed {
				t.Fatalf("owner dead=%v, want %v", o.Dead(), tc.killed)
			}
		})
	}
}

func TestDemotePriorityEdges(t *testing.T) {
	cases := []struct {
		name string
		prep func(p *path.Path)
	}{
		{"fresh path", func(*path.Path) {}},
		{"already demoted (idempotent)", func(p *path.Path) { DemotePriority(p) }},
		{"overrides a QoS reservation", func(p *path.Path) { ReserveShare(p, 9999) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, mgr := newEnv(t)
			p, err := mgr.Create(nil, "bad", "spin", lib.Attrs{})
			if err != nil {
				t.Fatal(err)
			}
			tc.prep(p)
			DemotePriority(p)
			sh := kernel.OwnerShare(p.PathOwner())
			if sh.Tickets != 1 || sh.Priority != 0 {
				t.Fatalf("tickets=%d prio=%d, want 1/0", sh.Tickets, sh.Priority)
			}
		})
	}
}

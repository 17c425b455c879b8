package kernel

import (
	"errors"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/domain"
	"repro/internal/lib"
	"repro/internal/obs"
	"repro/internal/sim"
)

func newKernel(t *testing.T, cfg Config) *Kernel {
	t.Helper()
	eng := sim.New()
	k := New(eng, cost.Default(), cfg)
	t.Cleanup(k.Stop)
	return k
}

func TestThreadRunsAndExits(t *testing.T) {
	k := newKernel(t, Config{Accounting: true})
	owner := k.NewOwner("p", core.PathOwner)
	ran := false
	k.Spawn(owner, "worker", func(ctx *Ctx) {
		ctx.Use(1000)
		ran = true
	}, SpawnOpts{})
	k.RunFor(1_000_000)
	if !ran {
		t.Fatal("thread did not run")
	}
	if k.LiveThreads() != 0 {
		t.Fatalf("live threads = %d after exit", k.LiveThreads())
	}
	if owner.Counters.Cycles < 1000 {
		t.Fatalf("owner cycles = %d, want >= 1000", owner.Counters.Cycles)
	}
	if owner.TrackedCount(core.TrackThreads) != 0 {
		t.Fatal("dead thread still tracked")
	}
	if owner.Counters.Stacks != 0 || owner.Counters.Kmem != 0 {
		t.Fatalf("thread resources leaked: stacks=%d kmem=%d",
			owner.Counters.Stacks, owner.Counters.Kmem)
	}
}

func TestUseAdvancesClockAndCharges(t *testing.T) {
	k := newKernel(t, Config{})
	owner := k.NewOwner("p", core.PathOwner)
	var at sim.Cycles
	k.Spawn(owner, "w", func(ctx *Ctx) {
		start := ctx.Now()
		ctx.Use(5000)
		at = ctx.Now() - start
	}, SpawnOpts{})
	k.RunFor(100_000)
	if at != 5000 {
		t.Fatalf("Use advanced %d cycles, want 5000", at)
	}
}

func TestYieldInterleavesThreads(t *testing.T) {
	k := newKernel(t, Config{Scheduler: "priority"})
	owner := k.NewOwner("p", core.PathOwner)
	var order []int
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn(owner, "w", func(ctx *Ctx) {
			for j := 0; j < 3; j++ {
				order = append(order, i)
				ctx.Yield()
			}
		}, SpawnOpts{})
	}
	k.RunFor(10_000_000)
	// With FIFO priority scheduling the two threads must alternate.
	want := []int{0, 1, 0, 1, 0, 1}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSemaphoreBlocksAndWakes(t *testing.T) {
	k := newKernel(t, Config{})
	owner := k.NewOwner("p", core.PathOwner)
	sem := k.NewSemaphore(owner, 0)
	var got []string
	k.Spawn(owner, "consumer", func(ctx *Ctx) {
		if err := sem.P(ctx); err != nil {
			t.Errorf("P: %v", err)
		}
		got = append(got, "consumed")
	}, SpawnOpts{})
	k.Spawn(owner, "producer", func(ctx *Ctx) {
		ctx.Use(10_000)
		got = append(got, "produced")
		sem.V(ctx)
	}, SpawnOpts{})
	k.RunFor(10_000_000)
	if len(got) != 2 || got[0] != "produced" || got[1] != "consumed" {
		t.Fatalf("order = %v", got)
	}
	if sem.count != 0 || waiters(sem) != 0 {
		t.Fatalf("sem state count=%d waiters=%d", sem.count, waiters(sem))
	}
}

func TestSemaphoreCountingSemantics(t *testing.T) {
	k := newKernel(t, Config{})
	owner := k.NewOwner("p", core.PathOwner)
	sem := k.NewSemaphore(owner, 2)
	passed := 0
	k.Spawn(owner, "w", func(ctx *Ctx) {
		for i := 0; i < 2; i++ {
			if err := sem.P(ctx); err != nil {
				return
			}
			passed++
		}
	}, SpawnOpts{})
	k.RunFor(1_000_000)
	if passed != 2 {
		t.Fatalf("passed = %d, want 2 (initial count)", passed)
	}
}

func TestSemaphoreDestroyUnblocksForeignWaiters(t *testing.T) {
	// Paper: "If a semaphore is destroyed ... all threads that do not
	// belong to the owner of the semaphore are unblocked."
	k := newKernel(t, Config{})
	semOwner := k.NewOwner("semOwner", core.PathOwner)
	foreign := k.NewOwner("foreign", core.PathOwner)
	sem := k.NewSemaphore(semOwner, 0)
	var gotErr error
	k.Spawn(foreign, "waiter", func(ctx *Ctx) {
		gotErr = sem.P(ctx)
	}, SpawnOpts{})
	k.RunFor(100_000) // waiter blocks
	if waiters(sem) != 1 {
		t.Fatalf("waiters = %d", waiters(sem))
	}
	sem.Destroy()
	k.RunFor(1_000_000)
	if !errors.Is(gotErr, ErrDestroyed) {
		t.Fatalf("foreign waiter err = %v, want ErrDestroyed", gotErr)
	}
	if semOwner.Counters.Semaphores != 0 {
		t.Fatal("semaphore not refunded")
	}
}

func TestKillBlockedThread(t *testing.T) {
	k := newKernel(t, Config{})
	owner := k.NewOwner("p", core.PathOwner)
	sem := k.NewSemaphore(owner, 0)
	reachedAfterP := false
	th := k.Spawn(owner, "victim", func(ctx *Ctx) {
		_ = sem.P(ctx)
		reachedAfterP = true
	}, SpawnOpts{})
	k.RunFor(100_000)
	k.KillThread(th)
	k.RunFor(1_000_000)
	if reachedAfterP {
		t.Fatal("killed thread continued past block point")
	}
	if k.LiveThreads() != 0 {
		t.Fatalf("live threads = %d; killed thread goroutine leaked", k.LiveThreads())
	}
	if waiters(sem) != 0 {
		t.Fatal("killed thread left on semaphore wait queue")
	}
}

func TestKillNewThreadBeforeFirstDispatch(t *testing.T) {
	k := newKernel(t, Config{})
	owner := k.NewOwner("p", core.PathOwner)
	ran := false
	th := k.Spawn(owner, "w", func(ctx *Ctx) { ran = true }, SpawnOpts{})
	k.KillThread(th)
	k.RunFor(1_000_000)
	if ran {
		t.Fatal("killed-before-dispatch thread ran its body")
	}
	if k.LiveThreads() != 0 {
		t.Fatal("goroutine leaked")
	}
}

func TestRunawayDetectionAndContainment(t *testing.T) {
	// The CGI-attack mechanism: a thread that loops without yielding is
	// detected once it exceeds MaxRunCycles and its owner is destroyed.
	k := newKernel(t, Config{Accounting: true})
	owner := k.NewOwner("cgi", core.PathOwner)
	owner.Limits.MaxRunCycles = 2 * sim.CyclesPerMillisecond // the paper's 2 ms
	var caught *Thread
	k.OnRunaway = func(th *Thread) {
		caught = th
		k.DestroyOwner(th.Owner(), true)
	}
	start := k.Engine().Now()
	k.Spawn(owner, "spin", func(ctx *Ctx) {
		for {
			ctx.Use(1000) // infinite loop
		}
	}, SpawnOpts{})
	k.RunFor(100 * sim.CyclesPerMillisecond)
	if caught == nil {
		t.Fatal("runaway never detected")
	}
	if !owner.Dead() {
		t.Fatal("owner not destroyed")
	}
	elapsed := k.Engine().Now() - start
	if owner.Counters.Cycles < 2*sim.CyclesPerMillisecond {
		t.Fatalf("owner charged %d cycles, want >= 2ms worth", owner.Counters.Cycles)
	}
	// Detection must happen promptly (within ~3ms of virtual time).
	if owner.Counters.Cycles > 3*sim.CyclesPerMillisecond {
		t.Fatalf("runaway consumed %d cycles before detection", owner.Counters.Cycles)
	}
	_ = elapsed
	if k.LiveThreads() != 0 {
		t.Fatal("runaway goroutine leaked")
	}
}

func TestDestroyOwnerReclaimsEverything(t *testing.T) {
	k := newKernel(t, Config{Accounting: true})
	owner := k.NewOwner("p", core.PathOwner)
	sem := k.NewSemaphore(owner, 0)
	k.RegisterEvent(owner, "ev", 1<<40, 0, func(ctx *Ctx) {})
	if _, err := k.Pages().Alloc(owner, 3); err != nil {
		t.Fatal(err)
	}
	k.Spawn(owner, "w", func(ctx *Ctx) { _ = sem.P(ctx) }, SpawnOpts{})
	k.RunFor(100_000)

	freeBefore := k.Pages().FreePages()
	n := k.DestroyOwner(owner, true)
	k.RunFor(1_000_000)

	if n < 4 {
		t.Fatalf("released %d objects, want >= 4 (sem, event, pages, thread)", n)
	}
	c := owner.Counters
	if c.Pages != 0 || c.Events != 0 || c.Semaphores != 0 {
		t.Fatalf("counters not zeroed: %+v", c)
	}
	if k.Pages().FreePages() != freeBefore+3 {
		t.Fatal("pages not returned to kernel")
	}
	if k.LiveThreads() != 0 {
		t.Fatal("thread leaked")
	}
	if k.DestroyOwner(owner, true) != 0 {
		t.Fatal("second destroy released objects")
	}
}

// TestOrderlyTeardownCyclesFold: an orderly DestroyOwner bills the
// teardown to the dying owner after MarkDead has folded it into its
// group. Those cycles must still reach the next ledger snapshot and the
// next metrics sample, so neither loses a cycle of the clock.
func TestOrderlyTeardownCyclesFold(t *testing.T) {
	m := obs.NewSampler()
	k := newKernel(t, Config{Accounting: true, Metrics: m})
	owner := k.NewOwner("p", core.PathOwner)
	k.NewSemaphore(owner, 0)
	k.RegisterEvent(owner, "ev", 1<<40, 0, func(ctx *Ctx) {})
	k.Spawn(owner, "w", func(ctx *Ctx) { ctx.Use(5_000) }, SpawnOpts{})
	k.RunFor(100_000)

	before := k.Ledger().Snapshot(k.Engine().Now())
	charged := owner.Counters.Cycles
	n := k.DestroyOwner(owner, false)
	teardown := sim.Cycles(n) * k.Model().PathKillPerObject / 2
	if n == 0 || teardown == 0 {
		t.Fatalf("orderly teardown released %d objects for %d cycles", n, teardown)
	}
	if got := owner.Counters.Cycles; got != charged+teardown {
		t.Fatalf("owner cycles = %d, want %d + %d of teardown", got, charged, teardown)
	}

	now := k.Engine().Now()
	d := k.Ledger().Snapshot(now).Diff(before)
	if got := d.ByOwner["p"]; got != teardown {
		t.Errorf("snapshot delta for the dead owner = %d, want %d", got, teardown)
	}
	if d.Unaccounted() != 0 {
		t.Errorf("unaccounted = %d of %d", d.Unaccounted(), d.Measured)
	}
	m.Final(now)
	s := m.Samples()[len(m.Samples())-1]
	if got := s.Cycles["p"]; got != charged+teardown {
		t.Errorf("sampled cycles for the dead owner = %d, want %d", got, charged+teardown)
	}
	var total sim.Cycles
	for _, c := range s.Cycles {
		total += c
	}
	if total != now {
		t.Errorf("sampled cycles sum to %d, clock is %d", total, now)
	}
}

func TestEventForksThreadAfterDelay(t *testing.T) {
	k := newKernel(t, Config{})
	owner := k.NewOwner("p", core.PathOwner)
	var firedAt sim.Cycles
	k.RegisterEvent(owner, "timer", 50_000, 0, func(ctx *Ctx) {
		firedAt = ctx.Now()
	})
	k.RunFor(1_000_000)
	if firedAt < 50_000 || firedAt > 80_000 {
		t.Fatalf("event thread ran at %d, want shortly after 50000", firedAt)
	}
	if owner.Counters.Events != 0 {
		t.Fatal("one-shot event not refunded after firing")
	}
}

func TestRepeatingEvent(t *testing.T) {
	// The period must comfortably exceed the firing cost (event charge +
	// thread spawn); a period below it is an interrupt storm, which
	// livelocks the CPU — on real hardware as here.
	k := newKernel(t, Config{})
	owner := k.NewOwner("p", core.PathOwner)
	count := 0
	k.RegisterEvent(owner, "tick", 50_000, 50_000, func(ctx *Ctx) { count++ })
	k.RunFor(475_000)
	if count < 8 || count > 9 {
		t.Fatalf("repeating event fired %d times in 475k cycles at 50k period, want 8-9", count)
	}
}

func TestSoftclockChargesKernel(t *testing.T) {
	k := newKernel(t, Config{})
	k.RunFor(10 * sim.CyclesPerMillisecond)
	if k.ticks < 9 || k.ticks > 11 {
		t.Fatalf("ticks = %d after 10ms, want ~10", k.ticks)
	}
	if k.softclockOwner.Counters.Cycles == 0 {
		t.Fatal("softclock cycles not charged")
	}
}

func TestIdleChargedToIdleOwner(t *testing.T) {
	k := newKernel(t, Config{})
	k.RunFor(sim.CyclesPerMillisecond)
	idle := k.idleOwner.Counters.Cycles
	if idle == 0 {
		t.Fatal("no idle cycles charged on an empty system")
	}
}

// TestLedgerConservation is the Table 1 invariant at the kernel level:
// after arbitrary activity, the sum over owners of charged cycles equals
// the wall clock exactly.
func TestLedgerConservation(t *testing.T) {
	k := newKernel(t, Config{Accounting: true})
	before := k.Ledger().Snapshot(k.Engine().Now())
	o1 := k.NewOwner("p1", core.PathOwner)
	o2 := k.NewOwner("p2", core.PathOwner)
	sem := k.NewSemaphore(o1, 0)
	k.Spawn(o1, "a", func(ctx *Ctx) {
		ctx.Use(123_456)
		sem.V(ctx)
		ctx.Yield()
		ctx.Use(7)
	}, SpawnOpts{})
	k.Spawn(o2, "b", func(ctx *Ctx) {
		_ = sem.P(ctx)
		ctx.Use(55_555)
	}, SpawnOpts{})
	k.RunFor(5 * sim.CyclesPerMillisecond)
	after := k.Ledger().Snapshot(k.Engine().Now())
	d := after.Diff(before)
	if d.Unaccounted() != 0 {
		t.Fatalf("unaccounted cycles = %d (measured %d, accounted %d)",
			d.Unaccounted(), d.Measured, d.Accounted())
	}
}

func TestCrossingChargesAndChecks(t *testing.T) {
	k := newKernel(t, Config{Accounting: true})
	dTCP := k.Domains().Create("tcp")
	dIP := k.Domains().Create("ip")
	owner := k.NewOwner("p", core.PathOwner)
	allowed := lib.NewHash(4)
	allowed.Put(lib.PairKey(uint32(dTCP.ID()), uint32(dIP.ID())), true)

	var inIP, back domain.ID
	k.Spawn(owner, "w", func(ctx *Ctx) {
		ctx.Cross(dTCP.ID(), func() { // kernel -> tcp always allowed
			ctx.Cross(dIP.ID(), func() { // tcp -> ip via allowed table
				inIP = ctx.Thread().CurrentDomain()
			})
			back = ctx.Thread().CurrentDomain()
		})
	}, SpawnOpts{Allowed: allowed})
	k.RunFor(10_000_000)
	if inIP != dIP.ID() || back != dTCP.ID() {
		t.Fatalf("domains: inIP=%d back=%d", inIP, back)
	}
	// Two real crossings, each with entry+return and stack setups.
	if owner.Counters.Cycles < 4*cost.Default().CrossDomainCall {
		t.Fatalf("crossing cycles = %d, too cheap", owner.Counters.Cycles)
	}
	flushes, _ := k.TLB().Stats()
	if flushes < 4 {
		t.Fatalf("TLB flushes = %d, want >= 4", flushes)
	}
	if owner.Counters.Stacks != 0 {
		t.Fatal("stacks not refunded at thread exit")
	}
}

func TestIllegalCrossingKillsThread(t *testing.T) {
	k := newKernel(t, Config{Accounting: true})
	dTCP := k.Domains().Create("tcp")
	dIP := k.Domains().Create("ip")
	owner := k.NewOwner("p", core.PathOwner)
	var faulted *Thread
	k.OnProtFault = func(th *Thread) { faulted = th }
	escaped := false
	k.Spawn(owner, "w", func(ctx *Ctx) {
		ctx.Cross(dTCP.ID(), func() {
			ctx.Cross(dIP.ID(), func() { // not in (empty) allowed table
				escaped = true
			})
		})
	}, SpawnOpts{Allowed: lib.NewHash(4)})
	k.RunFor(10_000_000)
	if escaped {
		t.Fatal("illegal crossing executed target code")
	}
	if faulted == nil {
		t.Fatal("protection fault hook not invoked")
	}
	if k.LiveThreads() != 0 {
		t.Fatal("faulting thread leaked")
	}
}

func TestSameDomainCrossIsFree(t *testing.T) {
	k := newKernel(t, Config{})
	owner := k.NewOwner("p", core.PathOwner)
	var before, after sim.Cycles
	k.Spawn(owner, "w", func(ctx *Ctx) {
		before = ctx.Now()
		ctx.Cross(domain.KernelID, func() {})
		after = ctx.Now()
	}, SpawnOpts{})
	k.RunFor(1_000_000)
	if before != after {
		t.Fatalf("same-domain cross consumed %d cycles", after-before)
	}
}

func TestCrossUnwindOnKill(t *testing.T) {
	// A thread killed deep inside nested crossings must unwind its
	// kernel-resident crossing stack (the defers) without corrupting it.
	k := newKernel(t, Config{Accounting: true})
	d1 := k.Domains().Create("a")
	owner := k.NewOwner("p", core.PathOwner)
	owner.Limits.MaxRunCycles = sim.CyclesPerMillisecond
	k.OnRunaway = func(th *Thread) { k.DestroyOwner(th.Owner(), true) }
	var th *Thread
	th = k.Spawn(owner, "w", func(ctx *Ctx) {
		ctx.Cross(d1.ID(), func() {
			for {
				ctx.Use(10_000)
			}
		})
	}, SpawnOpts{})
	k.RunFor(100 * sim.CyclesPerMillisecond)
	if !owner.Dead() {
		t.Fatal("runaway in nested domain not contained")
	}
	if th.crossDepth != 0 {
		t.Fatalf("crossing stack depth = %d after unwind", th.crossDepth)
	}
	if k.LiveThreads() != 0 {
		t.Fatal("goroutine leaked")
	}
}

// TestACLDefaultsAndDeny checks the role table: unprivileged domains
// are denied exactly the policy-setting syscalls.
func TestACLDefaultsAndDeny(t *testing.T) {
	if privilegedOnly[OpPathCreate] {
		t.Fatal("unprivileged domains denied pathCreate")
	}
	for _, op := range []Op{OpOwnerSetLimits, OpSchedSetShare, OpSchedSetPriority, OpSchedSetDeadline, OpPathKill, OpThreadStop} {
		if !privilegedOnly[op] {
			t.Fatalf("unprivileged domains allowed %s", op)
		}
	}
}

func TestSyscallEnforcesACL(t *testing.T) {
	k := newKernel(t, Config{})
	d := k.Domains().Create("http")
	owner := k.NewOwner("p", core.PathOwner)
	var err0, err1, err2 error
	k.Spawn(owner, "w", func(ctx *Ctx) {
		err0 = ctx.Syscall(OpPathKill) // kernel domain: allowed
		ctx.Cross(d.ID(), func() {
			err1 = ctx.Syscall(OpPathKill)   // privileged-only: denied
			err2 = ctx.Syscall(OpPathCreate) // allowed
		})
	}, SpawnOpts{Allowed: lib.NewHash(4)})
	k.RunFor(10_000_000)
	if err0 != nil {
		t.Fatalf("err0 = %v, want nil", err0)
	}
	if !errors.Is(err1, ErrAccessDenied) {
		t.Fatalf("err1 = %v, want ErrAccessDenied", err1)
	}
	if err2 != nil {
		t.Fatalf("err2 = %v, want nil", err2)
	}
}

func TestAccountingTaxOnlyWhenEnabled(t *testing.T) {
	run := func(accounting bool) sim.Cycles {
		eng := sim.New()
		k := New(eng, cost.Default(), Config{Accounting: accounting})
		defer k.Stop()
		owner := k.NewOwner("p", core.PathOwner)
		sem := k.NewSemaphore(owner, 1)
		k.Spawn(owner, "w", func(ctx *Ctx) {
			for i := 0; i < 100; i++ {
				_ = sem.P(ctx)
				sem.V(ctx)
				_ = ctx.Syscall(OpPathStat)
			}
		}, SpawnOpts{})
		k.RunFor(50 * sim.CyclesPerMillisecond)
		return owner.Counters.Cycles
	}
	with, without := run(true), run(false)
	if with <= without {
		t.Fatalf("accounting config used %d cycles, base %d; expected overhead", with, without)
	}
	overhead := float64(with-without) / float64(without)
	if overhead <= 0.01 {
		t.Fatalf("accounting overhead = %.3f, suspiciously small", overhead)
	}
}

func TestSleep(t *testing.T) {
	k := newKernel(t, Config{})
	owner := k.NewOwner("p", core.PathOwner)
	var woke sim.Cycles
	k.Spawn(owner, "w", func(ctx *Ctx) {
		ctx.Sleep(500_000)
		woke = ctx.Now()
	}, SpawnOpts{})
	k.RunFor(2_000_000)
	if woke < 500_000 {
		t.Fatalf("woke at %d, want >= 500000", woke)
	}
}

// TestSleepDoesNotAllocate pins Sleep's wakeup as an arg-carrying
// engine event: a thread that sleeps and wakes in a loop allocates
// nothing per round once the engine's record pool is warm.
func TestSleepDoesNotAllocate(t *testing.T) {
	k := newKernel(t, Config{})
	owner := k.NewOwner("p", core.PathOwner)
	const period = 100_000
	rounds := 0
	k.Spawn(owner, "sleeper", func(ctx *Ctx) {
		for {
			ctx.Sleep(period)
			rounds++
		}
	}, SpawnOpts{})
	k.RunFor(10 * period)
	before := rounds
	// Each run spans several rounds: AllocsPerRun divides in integers,
	// so one allocation per round must add up to at least one per run.
	allocs := testing.AllocsPerRun(100, func() { k.RunFor(10 * period) })
	if allocs != 0 {
		t.Fatalf("ten periods of Sleep rounds allocate %.1f objects, want 0", allocs)
	}
	if rounds-before < 900 {
		t.Fatalf("the sleeper woke %d times in 1010 periods", rounds-before)
	}
}

func TestSpawnOnDeadOwnerPanics(t *testing.T) {
	k := newKernel(t, Config{})
	owner := k.NewOwner("p", core.PathOwner)
	k.DestroyOwner(owner, true)
	defer func() {
		if recover() == nil {
			t.Fatal("spawn on dead owner did not panic")
		}
	}()
	k.Spawn(owner, "w", func(ctx *Ctx) {}, SpawnOpts{})
}

func TestOpStrings(t *testing.T) {
	if NumOps < 52 {
		t.Fatalf("syscall surface has %d ops; the paper implements 52", NumOps)
	}
	for op := Op(0); op < NumOps; op++ {
		if op.String() == "" {
			t.Fatalf("op %d has no name", op)
		}
	}
}

// A thread that blocks on and is woken from one semaphore, again and
// again, allocates nothing: waiters link through the threads.
func TestSemaphoreBlockWakeDoesNotAllocate(t *testing.T) {
	k := newKernel(t, Config{Accounting: true})
	owner := k.NewOwner("p", core.PathOwner)
	sem := k.NewSemaphore(owner, 0)
	wakes := 0
	k.Spawn(owner, "waiter", func(ctx *Ctx) {
		for sem.P(ctx) == nil {
			wakes++
		}
	}, SpawnOpts{})
	k.RunFor(100_000) // the first block
	allocs := testing.AllocsPerRun(100, func() {
		sem.Signal(owner)
		k.RunFor(100_000)
	})
	if allocs != 0 {
		t.Fatalf("a block/wake cycle allocates %v objects, want 0", allocs)
	}
	if wakes != 101 || waiters(sem) != 1 || sem.count != 0 {
		t.Fatalf("wakes=%d waiters=%d count=%d, want 101, 1, 0", wakes, waiters(sem), sem.count)
	}
}

// Waiters wake in the order they blocked; a killed waiter leaves the
// list from the middle or the tail without disturbing the rest.
func TestSemaphoreWakesInBlockOrder(t *testing.T) {
	k := newKernel(t, Config{})
	owner := k.NewOwner("p", core.PathOwner)
	sem := k.NewSemaphore(owner, 0)
	var woke []string
	spawn := func(name string) *Thread {
		th := k.Spawn(owner, name, func(ctx *Ctx) {
			if sem.P(ctx) == nil {
				woke = append(woke, name)
			}
		}, SpawnOpts{})
		k.RunFor(100_000) // blocks before the next one spawns
		return th
	}
	spawn("a")
	b := spawn("b")
	spawn("c")
	d := spawn("d")
	k.KillThread(b)
	k.KillThread(d)
	spawn("e")
	if waiters(sem) != 3 {
		t.Fatalf("waiters = %d, want 3", waiters(sem))
	}
	for i := 0; i < 3; i++ {
		sem.Signal(owner)
	}
	k.RunFor(1_000_000)
	if got := strings.Join(woke, " "); got != "a c e" {
		t.Fatalf("woke %q, want \"a c e\"", got)
	}
	if waiters(sem) != 0 || sem.count != 0 || k.LiveThreads() != 0 {
		t.Fatalf("waiters=%d count=%d live threads=%d", waiters(sem), sem.count, k.LiveThreads())
	}
}

// threadSizeClass is the Go allocator size class a Thread fits in; one
// thread per path makes a byte over it cost every connection.
const threadSizeClass = 224

// TestThreadFitsSizeClass guards the size of the thread control block,
// which holds its Ctx and scheduler state inline.
func TestThreadFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Thread{}); n > threadSizeClass {
		t.Fatalf("unsafe.Sizeof(Thread{}) = %d bytes, over the %d-byte size class", n, threadSizeClass)
	}
}

// waiters counts the threads blocked on s.
func waiters(s *Semaphore) int {
	n := 0
	for t := s.head; t != nil; t = t.semNext {
		n++
	}
	return n
}

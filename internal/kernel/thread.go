package kernel

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/fault"
	"repro/internal/lib"
	"repro/internal/sched"
	"repro/internal/sim"
)

// threadKmem is the kernel memory charged for a thread control block.
const threadKmem = 512

type threadState uint8

const (
	threadNew threadState = iota
	threadRunnable
	threadRunning
	threadBlocked
	threadDead
)

type yieldKind int

const (
	yieldYielded yieldKind = iota
	yieldBlocked
	yieldPaused
	yieldExited
	yieldKilled

	// resumed is what the kernel sends on a thread's hand to start or
	// continue its slice; a thread never yields it.
	resumed
)

// String names the way a slice ended, for trace events.
func (y yieldKind) String() string {
	switch y {
	case yieldYielded:
		return "yield"
	case yieldBlocked:
		return "block"
	case yieldPaused:
		return "pause"
	case yieldExited:
		return "exit"
	case yieldKilled:
		return "kill"
	default:
		return fmt.Sprintf("yieldKind(%d)", int(y)) //escort:coldpath diagnostic stringer fallback for unknown kinds
	}
}

// killSentinel is the panic value used to unwind a killed thread's
// goroutine.
type sentinel int

const killSentinel sentinel = 0

// Fn is the body of a thread.
type Fn func(ctx *Ctx)

// Thread is an Escort thread: owned by a path or protection domain, non-
// preemptive, able to cross protection domains when owned by a path
// (§3.2). Threads carry one stack per domain they have entered plus a
// kernel-resident stack recording in-progress crossings.
type Thread struct {
	ctx   Ctx // the environment handed to the body: the kernel and this thread
	name  string
	owner *core.Owner

	// hand carries the CPU between the kernel and the thread's
	// goroutine. The two strictly alternate on it: the kernel sends
	// resumed, then receives how the slice ended.
	hand chan yieldKind

	state         threadState
	killed        bool
	refunded      bool      // kmem/stack charges already returned
	curDomain     domain.ID // the protection domain executing now
	sinceYield    sim.Cycles
	usedThisSlice sim.Cycles

	crossDepth int          // depth of the kernel-resident crossing stack
	stacks     []domain.ID  // domains with a materialized stack
	stackBuf   [8]domain.ID // stacks' inline backing
	allowed    *lib.Hash    // path's allowed-crossings table (nil for domain threads)
	node       lib.Node     // owner thread-list tracking
	sem        *Semaphore   // where blocked, if anywhere
	semNext    *Thread      // the next waiter on sem
	onKilled   func()       // test hook
	sched      sched.State  // per-thread queue state bound to the owner's Share
}

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Owner returns the thread's owner.
func (t *Thread) Owner() *core.Owner { return t.owner }

// CurrentDomain returns the protection domain the thread is executing in.
func (t *Thread) CurrentDomain() domain.ID { return t.curDomain }

// SchedState implements sched.Entity: each thread has its own queue
// state, but it draws on its owner's Share, so an owner's threads
// collectively receive the owner's allocation.
func (t *Thread) SchedState() *sched.State { return &t.sched }

// ReleaseOwned implements core.Tracked: owner teardown kills the thread
// and returns its kmem/stack charges while the owner can still receive
// refunds (the owner is marked dead only after ReleaseAll completes).
func (t *Thread) ReleaseOwned(kill bool) {
	t.ctx.k.KillThread(t)
	t.refundCharges()
}

// refundCharges returns the thread's kmem and stack charges exactly once.
func (t *Thread) refundCharges() {
	if t.refunded {
		return
	}
	t.refunded = true
	if !t.owner.Dead() {
		t.owner.RefundKmem(threadKmem)
		t.owner.RefundStacks(uint64(1 + len(t.stacks)))
	}
}

// SpawnOpts tunes thread creation. Every thread starts executing in
// the kernel domain.
type SpawnOpts struct {
	// Allowed is the path's allowed-crossings table for path threads.
	Allowed *lib.Hash
}

// ErrDeadOwner is returned by SpawnChecked for a dead owner (the
// unchecked Spawn keeps the historical panic).
var ErrDeadOwner = errors.New("kernel: operation on dead owner")

// Spawn creates a thread owned by owner and makes it runnable,
// panicking on a dead owner. Under an armed "thread.spawn" failpoint
// the spawn can fail, in which case Spawn returns nil: a path losing a
// worker this way simply makes no progress until the watchdog reaps
// it, which is exactly the degradation chaos runs exercise. Callers
// that need the failure surfaced use SpawnChecked.
func (k *Kernel) Spawn(owner *core.Owner, name string, fn Fn, opts SpawnOpts) *Thread {
	t, err := k.SpawnChecked(owner, name, fn, opts)
	if err != nil {
		if errors.Is(err, ErrDeadOwner) {
			panic(fmt.Sprintf("kernel: spawn on dead owner %q", owner.Name))
		}
		return nil
	}
	return t
}

// SpawnChecked is Spawn with failures surfaced as typed errors:
// ErrDeadOwner for a dead owner, fault.ErrInjected (wrapped) when the
// "thread.spawn" failpoint fires. The failpoint is consulted before
// any charge lands, so a failed spawn leaves the owner's balances
// untouched.
func (k *Kernel) SpawnChecked(owner *core.Owner, name string, fn Fn, opts SpawnOpts) (*Thread, error) {
	if owner.Dead() {
		return nil, fmt.Errorf("%w: spawn %q on %q", ErrDeadOwner, name, owner.Name)
	}
	if k.failSpawn.Fire() {
		if tr := k.tracer; tr != nil {
			tr.Fault("failpoint", owner.Name, "thread.spawn", k.eng.Now())
		}
		k.faultCounters.Inc(owner.Name)
		return nil, fmt.Errorf("kernel: spawn %q: %w", name, fault.ErrInjected)
	}
	t := &Thread{ //escort:coldpath thread construction: spawn is charged (ThreadSpawn + kmem + stack), not packet path
		name:      name,
		owner:     owner,
		hand:      make(chan yieldKind), //escort:coldpath spawn construction, as above
		state:     threadNew,
		curDomain: domain.KernelID,
		allowed:   opts.Allowed,
		sched:     sched.MakeState(OwnerShare(owner)),
	}
	t.ctx = Ctx{k: k, t: t}
	t.node.Value = t
	t.stacks = t.stackBuf[:0]
	owner.ChargeKmem(threadKmem)
	owner.ChargeStacks(1) // home stack
	owner.Track(core.TrackThreads, &t.node)
	k.threads = append(k.threads, t) //escort:coldpath live-thread list grows once per spawn; removeThread shrinks it in place
	k.Burn(owner, k.model.ThreadSpawn+k.AccountingTax())
	if tr := k.tracer; tr != nil {
		tr.ThreadSpawn(uint32(t.curDomain), owner.Name, name, k.eng.Now())
	}

	go func() { //escort:coldpath one goroutine environment per spawned thread
		<-t.hand
		defer func() {
			if r := recover(); r != nil {
				if r != killSentinel {
					panic(r)
				}
				if t.onKilled != nil {
					t.onKilled()
				}
				t.hand <- yieldKilled
				return
			}
			t.hand <- yieldExited
		}()
		if t.killed {
			panic(killSentinel)
		}
		fn(&t.ctx)
	}()

	k.makeRunnable(t)
	return t, nil
}

// OwnerShare returns the owner's scheduling allocation, materializing it
// on first use. core keeps the field as an interface so it stays
// dependency-free; the kernel pins the concrete type here.
func OwnerShare(o *core.Owner) *sched.Share {
	if o.Sched == nil {
		sh := &sched.Share{Tickets: 10} //escort:coldpath materialized once per owner on first scheduling contact
		o.Sched = sh
		return sh
	}
	return o.Sched.(*sched.Share)
}

// KillThread marks a thread for termination. A blocked thread is pulled
// off its semaphore and made runnable so its goroutine unwinds at next
// dispatch; the currently running thread terminates at its next charge or
// block point (Escort threads "can be preempted if they are destroyed
// immediately afterwards").
func (k *Kernel) KillThread(t *Thread) {
	if t.state == threadDead || t.killed {
		t.killed = true
		return
	}
	t.killed = true
	if t.sem != nil {
		t.sem.removeWaiter(t)
		t.sem = nil
	}
	if t.state == threadBlocked || t.state == threadNew {
		k.makeRunnable(t)
	}
}

// Ctx is a running thread's window onto the kernel: the explicit calling
// environment Escort passes as the first argument to every module
// function (§2.3).
type Ctx struct {
	k *Kernel
	t *Thread
}

// Kernel returns the kernel.
func (c *Ctx) Kernel() *Kernel { return c.k }

// Thread returns the running thread.
func (c *Ctx) Thread() *Thread { return c.t }

// Owner returns the running thread's owner.
func (c *Ctx) Owner() *core.Owner { return c.t.owner }

// Now returns the virtual time.
func (c *Ctx) Now() sim.Cycles { return c.k.eng.Now() }

func (c *Ctx) checkCurrent(op string) {
	if c.k.current != c.t {
		panic(fmt.Sprintf("kernel: %s from non-running thread %q", op, c.t.name))
	}
}

func (c *Ctx) checkKilled() {
	if c.t.killed {
		panic(killSentinel)
	}
}

// Use charges n cycles of computation to the thread's owner and advances
// the clock. It is the only way module code consumes CPU. If the charge
// pushes the thread past its owner's maximum runtime without yields, the
// runaway hook fires (the containment path) and the thread terminates.
func (c *Ctx) Use(n sim.Cycles) {
	c.checkCurrent("Use")
	c.checkKilled()
	c.k.Burn(c.t.owner, n)
	c.t.sinceYield += n
	c.t.usedThisSlice += n
	limit := c.t.owner.Limits.MaxRunCycles
	if limit > 0 && c.t.sinceYield > limit && !c.t.killed {
		if tr := c.k.tracer; tr != nil {
			tr.Policy("maxRuntime", c.t.owner.Name, c.t.name, c.Now())
		}
		if c.k.OnRunaway != nil {
			c.k.OnRunaway(c.t)
		}
		c.t.killed = true
	}
	c.checkKilled()
	// Hand control back to the run loop at its deadline. The thread is
	// not rescheduled — it resumes first on the next Run — so this does
	// not soften non-preemptive semantics; it only keeps the simulation
	// controllable when a no-limit configuration hosts a runaway.
	if dl := c.k.runDeadline; dl > 0 && c.Now() >= dl {
		c.t.hand <- yieldPaused
		<-c.t.hand
		c.checkKilled()
	}
}

// Yield gives up the CPU; the thread stays runnable.
func (c *Ctx) Yield() {
	c.checkCurrent("Yield")
	c.checkKilled()
	c.t.hand <- yieldYielded
	<-c.t.hand
	c.checkKilled()
}

// block parks the thread; some other context must makeRunnable it.
func (c *Ctx) block() {
	c.checkCurrent("block")
	c.t.hand <- yieldBlocked
	<-c.t.hand
	c.checkKilled()
}

// Sleep blocks the thread for d cycles.
func (c *Ctx) Sleep(d sim.Cycles) {
	c.checkCurrent("Sleep")
	c.checkKilled()
	c.k.eng.AfterArg(d, wakeSleeper, c.t)
	c.block()
}

// wakeSleeper is Sleep's timer: it makes the sleeping thread runnable
// unless something else (a kill) already moved it off blocked.
func wakeSleeper(a any) {
	t := a.(*Thread)
	if t.state == threadBlocked {
		t.ctx.k.makeRunnable(t)
	}
}

// Cross invokes fn in the target protection domain, performing the
// kernel-mediated crossing of §3.2: verify the crossing against the
// path's allowed-crossings table, charge the trap/switch cost, flush the
// TLB (the OSF1 PAL bug), materialize a stack in the target domain on
// first entry, and record the crossing on the kernel-resident stack. The
// return crossing mirrors the entry. Same-domain calls are ordinary
// function calls and cost nothing — this is what lets a single-domain
// configuration run at full speed with the same module code.
func (c *Ctx) Cross(target domain.ID, fn func()) {
	c.checkCurrent("Cross")
	c.checkKilled()
	t := c.t
	if target == t.curDomain {
		fn()
		return
	}
	tr := c.k.tracer
	if !c.crossingAllowed(t.curDomain, target) {
		if tr != nil {
			tr.Policy("protFault", t.owner.Name, t.name, c.Now())
		}
		if c.k.OnProtFault != nil {
			c.k.OnProtFault(t)
		}
		t.killed = true
		panic(killSentinel)
	}
	m := c.k.model
	var began sim.Cycles
	if tr != nil {
		began = c.Now()
	}
	// Entry crossing.
	c.Use(m.CrossDomainCall)
	c.k.tlb.Flush()
	if tr != nil {
		tr.TLBFlush(uint32(target), t.owner.Name, c.Now())
	}
	if target != domain.KernelID && !slices.Contains(t.stacks, target) {
		//escort:coldpath once per thread and domain; inline for up to 8 domains
		t.stacks = append(t.stacks, target)
		t.owner.ChargeStacks(1) //escort:held per-domain stack, refunded by refundCharges at thread exit
		c.Use(m.StackSetup)
	}
	t.crossDepth++
	from := t.curDomain
	t.curDomain = target
	if c.k.tlb.Touch(target) {
		c.Use(m.TLBMissPenalty)
	}
	defer func() { //escort:coldpath panic-safe restore: the env survives kill-unwind through the crossing
		// Return crossing: trap to the special address, pop the kernel
		// crossing stack, flush again.
		t.curDomain = from
		t.crossDepth--
		t.owner.ChargeCycles(m.CrossDomainCall)
		c.k.eng.ConsumeCPU(m.CrossDomainCall)
		c.k.tlb.Flush()
		if tr != nil {
			tr.TLBFlush(uint32(from), t.owner.Name, c.k.eng.Now())
		}
		if c.k.tlb.Touch(from) {
			t.owner.ChargeCycles(m.TLBMissPenalty)
			c.k.eng.ConsumeCPU(m.TLBMissPenalty)
		}
		if tr != nil {
			tr.Cross(t.owner.Name, uint32(from), uint32(target), began, c.k.eng.Now())
		}
	}()
	fn()
}

// crossingAllowed: the privileged kernel domain may call anywhere; other
// crossings need an entry in the path's allowed-crossings hash.
func (c *Ctx) crossingAllowed(from, to domain.ID) bool {
	if from == domain.KernelID {
		return true
	}
	if c.t.allowed == nil {
		return false
	}
	_, ok := c.t.allowed.Get(lib.PairKey(uint32(from), uint32(to)))
	return ok
}

// Package kernel implements Escort's privileged kernel: non-preemptive
// threads that cross protection domains, semaphores, events, the
// softclock, the page allocator front-end, the role-based ACL guarding
// the syscall surface, and the containment machinery (maximum thread
// runtime without yields, owner destruction).
//
// Execution model: threads are Go goroutines used strictly as coroutines
// — exactly one runs at a time, and control returns to the kernel's
// dispatch loop at yield, block, and exit points, mirroring Escort's
// non-preemptive threads (§3.2). All CPU consumption flows through
// Kernel.Burn, which both charges the owner and advances the virtual
// clock, so the ledger always sums to the measured total (the Table 1
// invariant).
package kernel

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/domain"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Config selects the kernel build-time configuration.
type Config struct {
	// Accounting enables resource accounting: bookkeeping overhead is
	// charged per kernel operation and usage policies can fire. With it
	// off the kernel is "base Scout".
	Accounting bool
	// Scheduler names the thread scheduler: "priority",
	// "proportional-share", or "edf" (configured at build time, §3.2).
	Scheduler string
	// TotalPages sizes the physical page pool.
	TotalPages int
	// MaxRunDefault is the default per-owner maximum thread runtime
	// without yields; zero means unlimited. Policies can override
	// per owner.
	MaxRunDefault sim.Cycles
	// Tracer, when non-nil, receives structured lifecycle events
	// (syscalls, thread slices, domain crossings, idle spans). A nil
	// tracer costs one pointer test per emit site.
	Tracer *obs.Tracer
	// Metrics, when non-nil, is bound to the ledger and polled at
	// scheduler-loop boundaries so per-owner time series get sampled
	// on its virtual-time tick.
	Metrics *obs.Metrics
	// Faults, when non-nil, arms the kernel's failpoints (thread
	// spawns, path/kernel allocations, IOBuffer grants) for
	// deterministic fault injection. Nil costs one pointer test per
	// guarded site.
	Faults *fault.Set
	// FaultCounters, when non-nil, receives per-owner fault counts
	// (failpoint hits, TX drops) for the metrics export.
	FaultCounters *obs.FaultRegistry
}

// Kernel is a running Escort kernel instance.
type Kernel struct {
	cfg    Config
	eng    *sim.Engine
	model  *cost.Model
	ledger *core.Ledger

	pages   *mem.Allocator
	domains *domain.Registry
	tlb     *domain.TLB
	sch     sched.Scheduler
	acl     *ACL

	tracer  *obs.Tracer  // nil when tracing is disabled
	metrics *obs.Metrics // nil when metrics are disabled

	faults        *fault.Set         // nil when fault injection is disabled
	faultCounters *obs.FaultRegistry // nil when fault counting is disabled
	failSpawn     *fault.Point       // "thread.spawn" failpoint, resolved once

	idleOwner      *core.Owner
	softclockOwner *core.Owner
	kernelOwner    *core.Owner // the privileged domain's owner

	current *Thread
	// threads holds every live thread in spawn order. A slice, not a
	// set: Stop and DestroyOwner walk it, and walking a map would make
	// teardown order (and therefore the trace) differ run to run.
	threads []*Thread

	ticks uint64 // softclock ticks (1 ms system timer)

	// OnRunaway is invoked when a thread exceeds its owner's maximum
	// runtime without yields. The policy layer points this at pathKill.
	// After it returns the offending thread is terminated regardless.
	OnRunaway func(t *Thread)

	// OnProtFault is invoked on an illegal protection-domain crossing,
	// before the faulting thread's owner is destroyed.
	OnProtFault func(t *Thread)

	softclockEv sim.Event
	stopped     bool

	// paused holds a thread that hit the run deadline mid-slice; it is
	// resumed first on the next Run call, preserving non-preemptive
	// semantics (a runaway thread on base Scout really does monopolize
	// the CPU across Run boundaries).
	paused      *Thread
	runDeadline sim.Cycles
}

// New creates a kernel on the given engine with the given cost model.
//
//escort:coldpath constructor, once per simulation
func New(eng *sim.Engine, model *cost.Model, cfg Config) *Kernel {
	if cfg.TotalPages <= 0 {
		cfg.TotalPages = 4096
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = "proportional-share"
	}
	k := &Kernel{
		cfg:     cfg,
		eng:     eng,
		model:   model,
		ledger:  &core.Ledger{},
		tlb:     domain.NewTLB(),
		sch:     sched.New(cfg.Scheduler),
		acl:     NewACL(),
		tracer:  cfg.Tracer,
		metrics: cfg.Metrics,

		faults:        cfg.Faults,
		faultCounters: cfg.FaultCounters,
		failSpawn:     cfg.Faults.Point("thread.spawn"),
	}
	k.pages = mem.NewAllocator(cfg.TotalPages)
	k.domains = domain.NewRegistry(k.pages, k.ledger)
	k.kernelOwner = &k.domains.Kernel().Owner

	k.idleOwner = core.NewOwner("Idle", core.IdleOwner)
	k.softclockOwner = core.NewOwner("Softclock", core.KernelOwner)
	k.ledger.Register(k.idleOwner)
	k.ledger.Register(k.softclockOwner)

	if tr := k.tracer; tr != nil {
		eng.IdleSink = func(c sim.Cycles) {
			k.idleOwner.ChargeCycles(c)
			now := eng.Now()
			tr.Idle(now-c, now)
		}
	} else {
		eng.IdleSink = func(c sim.Cycles) { k.idleOwner.ChargeCycles(c) }
	}
	k.metrics.Bind(k.ledger)

	// Softclock: the 1 ms system timer (§4.3.1 — "the softclock
	// increments the system timer every millisecond"; its cost is
	// charged to the kernel).
	var tick func()
	tick = func() {
		k.ticks++
		k.Burn(k.softclockOwner, k.model.SoftclockTick)
		k.softclockEv = eng.After(sim.CyclesPerMillisecond, tick)
	}
	k.softclockEv = eng.After(sim.CyclesPerMillisecond, tick)

	return k
}

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Model returns the cycle cost model.
func (k *Kernel) Model() *cost.Model { return k.model }

// Ledger returns the accounting ledger.
func (k *Kernel) Ledger() *core.Ledger { return k.ledger }

// Pages returns the physical page allocator.
func (k *Kernel) Pages() *mem.Allocator { return k.pages }

// Domains returns the protection-domain registry.
func (k *Kernel) Domains() *domain.Registry { return k.domains }

// TLB returns the simulated TLB.
func (k *Kernel) TLB() *domain.TLB { return k.tlb }

// Scheduler returns the configured thread scheduler.
func (k *Kernel) Scheduler() sched.Scheduler { return k.sch }

// ACL returns the role-based access control list.
func (k *Kernel) ACL() *ACL { return k.acl }

// Tracer returns the configured event tracer; nil (which every obs
// method accepts) when tracing is disabled. Subsystems resolve this
// once at construction so the disabled path is a single pointer test.
func (k *Kernel) Tracer() *obs.Tracer { return k.tracer }

// Metrics returns the configured metrics sampler, nil when disabled.
func (k *Kernel) Metrics() *obs.Metrics { return k.metrics }

// FaultSet returns the kernel's failpoint set (nil when fault
// injection is disabled). Subsystems resolve their failpoints through
// it once at init: k.FaultSet().Point("iobuf.grant") is nil-safe.
func (k *Kernel) FaultSet() *fault.Set { return k.faults }

// FaultCounters returns the per-owner fault-count registry (nil when
// disabled).
func (k *Kernel) FaultCounters() *obs.FaultRegistry { return k.faultCounters }

// KernelOwner returns the privileged domain's owner.
func (k *Kernel) KernelOwner() *core.Owner { return k.kernelOwner }

// IdleOwner returns the idle pseudo-owner.
func (k *Kernel) IdleOwner() *core.Owner { return k.idleOwner }

// SoftclockOwner returns the softclock pseudo-owner.
func (k *Kernel) SoftclockOwner() *core.Owner { return k.softclockOwner }

// Ticks returns the softclock tick count (milliseconds of virtual time).
func (k *Kernel) Ticks() uint64 { return k.ticks }

// Current returns the running thread, or nil in interrupt/kernel context.
func (k *Kernel) Current() *Thread { return k.current }

// NewOwner creates and registers a path-or-auxiliary owner with the
// kernel-wide default limits applied.
func (k *Kernel) NewOwner(name string, t core.OwnerType) *core.Owner {
	o := core.NewOwner(name, t)
	k.AdoptOwner(o)
	return o
}

// AdoptOwner registers an externally-allocated owner (the Owner embedded
// first in a path or protection-domain structure) and applies the
// kernel-wide default limits.
func (k *Kernel) AdoptOwner(o *core.Owner) {
	o.Limits.MaxRunCycles = k.cfg.MaxRunDefault
	k.ledger.Register(o)
}

// Burn charges c cycles to owner and advances the virtual clock. Every
// cycle of simulated CPU in the system flows through here (or through the
// engine's idle sink), which is what makes "Total Accounted == Total
// Measured" hold by construction — the accounting *mechanism* under test
// is the owner attribution, not the arithmetic.
func (k *Kernel) Burn(owner *core.Owner, c sim.Cycles) {
	if c == 0 {
		return
	}
	owner.ChargeCycles(c)
	k.eng.ConsumeCPU(c)
}

// AccountingTax returns the bookkeeping overhead for one kernel object
// operation: zero when accounting is disabled.
func (k *Kernel) AccountingTax() sim.Cycles {
	if !k.cfg.Accounting {
		return 0
	}
	return k.model.AccountingOp
}

// Run dispatches threads and advances the simulation until the virtual
// clock reaches the given absolute time. A thread that computes past
// the deadline without yielding is paused (control returns here; the
// thread resumes first on the next Run) so the simulation remains
// controllable even with a runaway thread on a no-limit configuration.
func (k *Kernel) Run(until sim.Cycles) {
	k.runDeadline = until
	defer func() { k.runDeadline = 0 }() //escort:coldpath one closure per Run invocation, not per event
	// Metrics are sampled at loop boundaries only: here every burned
	// cycle has been fully charged to an owner, so each sample satisfies
	// the Table 1 invariant (summed owner cycles == Now) exactly. The
	// deferred poll covers the early return on the idle-to-deadline path.
	m := k.metrics
	if m != nil {
		defer func() { m.Poll(k.eng.Now()) }()
	}
	for k.eng.Now() < until && !k.stopped {
		if m != nil {
			m.Poll(k.eng.Now())
		}
		if t := k.paused; t != nil {
			k.paused = nil
			k.resume(t)
			continue
		}
		t := k.dequeueRunnable()
		if t == nil {
			next, ok := k.eng.NextEventAt()
			if !ok || next > until {
				k.eng.AdvanceTo(until)
				return
			}
			k.eng.AdvanceToNextEvent()
			continue
		}
		k.dispatch(t)
	}
}

// RunFor advances the simulation by d cycles.
func (k *Kernel) RunFor(d sim.Cycles) { k.Run(k.eng.Now() + d) }

func (k *Kernel) dequeueRunnable() *Thread {
	for {
		e := k.sch.Dequeue()
		if e == nil {
			return nil
		}
		t := e.(*Thread)
		if t.state == threadDead {
			continue // killed while queued and already unwound
		}
		return t
	}
}

func (k *Kernel) dispatch(t *Thread) {
	// Context switch cost is charged to the incoming thread's owner.
	k.Burn(t.owner, k.model.ThreadSwitch+k.AccountingTax())
	t.state = threadRunning
	t.sinceYield = 0
	k.resume(t)
}

// resume hands the CPU to t (fresh dispatch or continuation of a paused
// slice) and processes how it comes back.
func (k *Kernel) resume(t *Thread) {
	t.state = threadRunning
	k.current = t
	tr := k.tracer
	var began sim.Cycles
	if tr != nil {
		began = k.eng.Now()
	}
	t.hand <- resumed
	kind := <-t.hand
	if tr != nil {
		tr.ThreadSlice(uint32(t.curDomain), t.owner.Name, t.name, began, k.eng.Now(), kind.String())
	}
	k.current = nil
	used := t.usedThisSlice
	t.usedThisSlice = 0
	k.sch.Charged(t, used)
	switch kind {
	case yieldYielded:
		t.state = threadRunnable
		k.sch.Enqueue(t)
	case yieldBlocked:
		t.state = threadBlocked
	case yieldPaused:
		k.paused = t
	case yieldExited, yieldKilled:
		k.finishThread(t)
	}
}

// finishThread retires a thread after its goroutine has unwound.
func (k *Kernel) finishThread(t *Thread) {
	t.state = threadDead
	k.sch.Remove(t)
	t.owner.Untrack(core.TrackThreads, &t.node)
	t.refundCharges()
	k.removeThread(t)
	k.Burn(t.owner, k.model.ThreadExit)
	if tr := k.tracer; tr != nil {
		tr.ThreadExit(uint32(t.curDomain), t.owner.Name, t.name, k.eng.Now())
	}
}

// makeRunnable puts a blocked or new thread on the run queue. Safe from
// interrupt context.
func (k *Kernel) makeRunnable(t *Thread) {
	if t.state == threadDead || t.state == threadRunning {
		return
	}
	t.state = threadRunnable
	k.sch.Enqueue(t)
}

// Stop halts the dispatch loop and unwinds every live thread so no
// goroutines leak. The kernel is unusable afterwards.
func (k *Kernel) Stop() {
	k.stopped = true
	k.eng.Cancel(k.softclockEv)
	for _, t := range append([]*Thread(nil), k.threads...) {
		t.killed = true
		if t.state != threadDead {
			t.hand <- resumed
			<-t.hand
			t.state = threadDead
			k.removeThread(t)
		}
	}
}

// removeThread drops t from the live-thread list, preserving spawn
// order for the remaining threads.
func (k *Kernel) removeThread(t *Thread) {
	for i, x := range k.threads {
		if x == t {
			k.threads = append(k.threads[:i], k.threads[i+1:]...)
			return
		}
	}
}

// LiveThreads returns the number of live (non-dead) threads.
func (k *Kernel) LiveThreads() int { return len(k.threads) }

// DestroyOwner tears down an owner: every tracked object is released
// (threads killed, semaphores destroyed, events canceled, IOBuffer locks
// dropped, pages freed) and the owner is marked dead. The work is charged
// to the kernel — reclamation must not bill the victim, whose budget may
// be exactly what triggered the teardown. Returns the number of objects
// reclaimed. kill selects pathKill (true: skip destructors) semantics.
func (k *Kernel) DestroyOwner(o *core.Owner, kill bool) int {
	if o.Dead() {
		return 0
	}
	n := o.ReleaseAll(kill)
	o.MarkDead()
	if kill {
		k.Burn(k.kernelOwner, k.model.PathKillBase+sim.Cycles(n)*k.model.PathKillPerObject)
	} else {
		// Orderly teardown: the owner pays for its own cleanup, so Table 1
		// keeps its cycles on the path that did the work.
		k.Burn(o, sim.Cycles(n)*k.model.PathKillPerObject/2)
	}
	return n
}

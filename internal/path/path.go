// Package path implements Scout's path abstraction (§2.2, §3.1) with
// Escort's extensions: the path is both the logical I/O channel through
// the module graph and the owner to which all of its resources are
// charged. A path is created incrementally (each module's open function
// names the next module), identified incrementally at demux time, and
// destroyed either orderly (pathDestroy: module destructors run, in
// initialization order) or summarily (pathKill: every resource across
// every protection domain is reclaimed without running destructors —
// the containment primitive measured in Table 2).
package path

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Path kernel-memory footprints.
const (
	pathKmem     = 1024
	inQueueCap   = 128
	workerCount  = 1
	maxPathLen   = 32 // bound on the incremental open walk
	inlineStages = 8  // stages held in the Path itself; longer paths append
)

// Errors returned by path operations.
var (
	ErrPathDead  = errors.New("path: path destroyed")
	ErrQueueFull = errors.New("path: input queue full")
	ErrNoEdge    = errors.New("path: modules not connected in graph")
)

type workItem struct {
	m       *msg.Msg
	ctlIdx  int
	ctl     func(ctx *kernel.Ctx, st module.Stage)
	destroy bool
}

type domHook struct {
	d  *domain.Domain
	id int
}

// StageRec pairs a graph node with the stage the module contributed.
type StageRec struct {
	Node  *module.Node
	Stage module.Stage
}

// Path is the path object (Figure 6): the Owner structure is its first
// element, followed by the allowed protection-domain crossings, the
// stage list, the work queue, thread pool, and the reference count that
// delays pathDestroy (but never pathKill). Figure 6 draws four queues,
// input and output at each end; this path has one inbound work queue,
// since outbound messages run the stages on the sender's thread. The
// stage, handle and domain lists live in inline arrays for paths of up
// to inlineStages modules. The ledger keeps every dead owner, and with
// it the whole Path, so teardown releases the queue's ring.
type Path struct {
	Owner core.Owner

	name    string
	mgr     *Manager
	allowed *lib.Hash
	stages  []StageRec
	handles []stageHandle
	doms    []*domain.Domain // distinct domains crossed, in stage order
	work    lib.Queue        // inbound messages and control items
	workSem *kernel.Semaphore
	refCnt  int

	alive          bool
	pendingDestroy bool
	destroyAsked   bool   // RequestDestroy found the queue full
	staticKmem     uint64 // path struct + crossings hash charge
	domHooks       []domHook
	killHooks      []func() // run by Kill before the owner dies

	stageBuf  [inlineStages]StageRec
	handleBuf [inlineStages]stageHandle
	domBuf    [inlineStages]*domain.Domain

	// Drops counts inbound messages rejected because the input queue was
	// full — the flood backstop.
	Drops uint64

	// Delivered counts inbound messages processed by the thread pool.
	Delivered uint64
}

// PathName implements module.PathRef.
func (p *Path) PathName() string { return p.name }

// PathOwner implements module.PathRef.
func (p *Path) PathOwner() *core.Owner { return &p.Owner }

// Alive implements module.PathRef.
func (p *Path) Alive() bool { return p.alive }

// Stages returns the path's stage records.
func (p *Path) Stages() []StageRec { return p.stages }

// StageAt returns the stage at index i.
func (p *Path) StageAt(i int) module.Stage { return p.stages[i].Stage }

// Handle returns the stage handle at index i.
func (p *Path) Handle(i int) module.StageHandle { return &p.handles[i] }

// FindStage implements module.PathRef.
func (p *Path) FindStage(name string) (int, bool) {
	for i, rec := range p.stages {
		if rec.Node.Name() == name {
			return i, true
		}
	}
	return 0, false
}

// Spawn implements module.PathRef: a thread owned by the path with its
// allowed-crossings table (the CGI handler of §4.1.2 runs this way).
func (p *Path) Spawn(name string, fn func(ctx *kernel.Ctx)) {
	if !p.alive {
		return
	}
	p.mgr.k.Spawn(&p.Owner, name, fn, SpawnOptsForPath(p))
}

// PendingWork returns the depth of the path's inbound work queue: the
// messages and control items accepted but not yet processed. The
// watchdog uses it to distinguish a starved path (work pending, no
// progress) from an idle one.
func (p *Path) PendingWork() int { return p.work.Len() }

// OnKill registers fn to run if the path is summarily killed, while
// the path's owner can still receive refunds. Module-level per-path
// state that is charged but not kernel-tracked (the TCP module's TCBs)
// registers here so pathKill reclaims 100% of the owner's resources
// immediately instead of waiting for the module's periodic sweep.
// Hooks do not run on orderly destroy — module destructors own that.
func (p *Path) OnKill(fn func()) { p.killHooks = append(p.killHooks, fn) }

// RefCnt returns the current reference count.
func (p *Path) RefCnt() int { return p.refCnt }

// Ref takes a reference, delaying pathDestroy.
func (p *Path) Ref() { p.refCnt++ }

// Unref drops a reference; if a destroy was pending and this was the
// last reference, the orderly teardown proceeds now.
func (p *Path) Unref(ctx *kernel.Ctx) {
	if p.refCnt <= 0 {
		panic("path: Unref below zero")
	}
	p.refCnt--
	if p.refCnt == 0 && p.pendingDestroy && p.alive {
		p.mgr.Destroy(ctx, p)
	}
}

// Domains returns the distinct protection domains the path crosses, in
// stage order. The slice is the path's own; callers must not modify it.
func (p *Path) Domains() []*domain.Domain { return p.doms }

// findDomains lists the distinct domains of the stages, in stage order.
func (p *Path) findDomains() {
	p.doms = p.domBuf[:0]
	for _, rec := range p.stages {
		if d := rec.Node.Domain(); !slices.Contains(p.doms, d) {
			p.doms = append(p.doms, d)
		}
	}
}

// EnqueueIn implements module.PathRef: hand an inbound message to the
// path from interrupt context. The enqueue and wakeup costs are charged
// to the path — part of the per-datagram cost visible in the SYN-attack
// experiment.
func (p *Path) EnqueueIn(m *msg.Msg) error {
	if !p.alive {
		m.Free()
		return ErrPathDead
	}
	k := p.mgr.k
	k.Burn(&p.Owner, k.Model().QueueOp)
	if err := p.work.Enqueue(&workItem{m: m}); err != nil {
		p.Drops++
		m.Free()
		return ErrQueueFull
	}
	p.workSem.Signal(&p.Owner)
	return nil
}

// EnqueueControl implements module.PathRef: run fn on the path's thread
// in the domain of stage idx. TCP timeout processing arrives this way,
// which is how its cycles land on the connection's path (Table 1).
func (p *Path) EnqueueControl(idx int, fn func(ctx *kernel.Ctx, st module.Stage)) error {
	if !p.alive {
		return ErrPathDead
	}
	if idx < 0 || idx >= len(p.stages) {
		panic(fmt.Sprintf("path: control stage index %d out of range", idx))
	}
	k := p.mgr.k
	k.Burn(&p.Owner, k.Model().QueueOp)
	if err := p.work.Enqueue(&workItem{ctlIdx: idx, ctl: fn}); err != nil {
		p.Drops++
		return ErrQueueFull
	}
	p.workSem.Signal(&p.Owner)
	return nil
}

// RequestDestroy schedules an orderly pathDestroy from the path's own
// worker thread at top level (outside any domain crossing). Module code
// (TCP connection teardown) uses this because it runs nested inside
// crossings where a direct destroy would deadlock on itself. The
// request queues behind the work already accepted; when the queue is
// full it cannot be dropped like a message (the caller has already let
// go of the connection), so the worker destroys the path once the
// queue drains.
func (p *Path) RequestDestroy() {
	if !p.alive || p.destroyAsked {
		return
	}
	if err := p.work.Enqueue(&workItem{destroy: true}); err != nil {
		p.destroyAsked = true
	}
	p.workSem.Signal(&p.Owner)
}

// worker is the path thread-pool body: wait for work, process it moving
// messages through the stages.
func (p *Path) worker(ctx *kernel.Ctx) {
	for {
		if err := p.workSem.P(ctx); err != nil {
			return // semaphore destroyed with the path
		}
		v, ok := p.work.Dequeue()
		if !ok {
			if p.destroyAsked {
				p.mgr.Destroy(ctx, p)
				return
			}
			continue
		}
		item := v.(*workItem)
		switch {
		case item.destroy:
			p.mgr.Destroy(ctx, p)
			return
		case item.m != nil:
			p.Delivered++
			_ = p.deliverFrom(ctx, len(p.stages)-1, module.Up, item.m)
			item.m.Free()
		case item.ctl != nil:
			rec := p.stages[item.ctlIdx]
			ctx.Cross(rec.Node.Domain().ID(), func() {
				item.ctl(ctx, rec.Stage)
			})
		}
		// One work item per slice: a well-designed Escort thread yields
		// between units of work, so a backlog (a busy passive path under
		// heavy connection setup) never trips its own runaway limit.
		if p.work.Len() > 0 {
			ctx.Yield()
		}
	}
}

// deliverFrom moves m through the stages starting at idx in direction
// dir, crossing protection domains by nested kernel-mediated calls so a
// six-stage path in the worst-case configuration really performs the
// paper's per-boundary crossings.
func (p *Path) deliverFrom(ctx *kernel.Ctx, idx int, dir module.Direction, m *msg.Msg) error {
	if idx < 0 || idx >= len(p.stages) {
		return nil
	}
	rec := p.stages[idx]
	var err error
	ctx.Cross(rec.Node.Domain().ID(), func() {
		forward, derr := rec.Stage.Deliver(ctx, dir, m)
		if derr != nil || !forward {
			err = derr
			return
		}
		next := idx - 1
		if dir == module.Down {
			next = idx + 1
		}
		err = p.deliverFrom(ctx, next, dir, m)
	})
	return err
}

// stageHandle implements module.StageHandle.
type stageHandle struct {
	p   *Path
	idx int
}

func (h *stageHandle) Path() module.PathRef { return h.p }
func (h *stageHandle) Index() int           { return h.idx }

// SendDown injects m below this stage and frees it when the chain ends.
func (h *stageHandle) SendDown(ctx *kernel.Ctx, m *msg.Msg) error {
	err := h.p.deliverFrom(ctx, h.idx+1, module.Down, m)
	m.Free()
	return err
}

// SendUp injects m above this stage and frees it when the chain ends.
func (h *stageHandle) SendUp(ctx *kernel.Ctx, m *msg.Msg) error {
	err := h.p.deliverFrom(ctx, h.idx-1, module.Up, m)
	m.Free()
	return err
}

func (h *stageHandle) Below() module.Stage {
	if h.idx+1 >= len(h.p.stages) {
		return nil
	}
	return h.p.stages[h.idx+1].Stage
}

func (h *stageHandle) Above() module.Stage {
	if h.idx == 0 {
		return nil
	}
	return h.p.stages[h.idx-1].Stage
}

// builder implements module.PathBuilder during incremental creation.
// One builder serves a whole create; node and handle move to each new
// stage in turn.
type builder struct {
	p        *Path
	node     *module.Node
	handle   *stageHandle
	stages   []module.Stage // p's stages so far, append-only
	stageBuf [inlineStages]module.Stage
}

func (b *builder) Kernel() *kernel.Kernel     { return b.p.mgr.k }
func (b *builder) PathOwner() *core.Owner     { return &b.p.Owner }
func (b *builder) Node() *module.Node         { return b.node }
func (b *builder) Handle() module.StageHandle { return b.handle }

// Stages returns the stages opened so far. The list only grows, and
// the returned slice is capped at its length, so a caller may keep it.
func (b *builder) Stages() []module.Stage {
	return b.stages[:len(b.stages):len(b.stages)]
}

func (b *builder) NodeAt(i int) *module.Node { return b.p.stages[i].Node }

// Manager creates, identifies (demux), and destroys paths.
type Manager struct {
	k       *kernel.Kernel
	graph   *module.Graph
	paths   map[*Path]struct{}
	order   []*Path // live paths in creation order (deterministic iteration)
	byOwner map[*core.Owner]*Path
	tracer  *obs.Tracer // resolved once from the kernel; nil when disabled

	failKmem *fault.Point // "kmem.alloc" failpoint, resolved once

	classifier FrameClassifier
	demuxCtx   module.DemuxCtx // shared by every demux; modules only read it

	// DemuxRejects counts messages dropped during demultiplexing.
	DemuxRejects uint64
	// PatternHits and PatternMisses count classifier outcomes when a
	// pattern demultiplexer is installed.
	PatternHits, PatternMisses uint64
	// Kills counts pathKill invocations.
	Kills uint64
}

// NewManager returns a path manager over the given graph.
func NewManager(g *module.Graph) *Manager {
	return &Manager{
		k:        g.Kernel(),
		graph:    g,
		paths:    make(map[*Path]struct{}),
		byOwner:  make(map[*core.Owner]*Path),
		tracer:   g.Kernel().Tracer(),
		failKmem: g.Kernel().FaultSet().Point("kmem.alloc"),
		demuxCtx: module.DemuxCtx{Graph: g},
	}
}

// Paths returns the live paths in creation order. The slice is a
// copy, so callers (the watchdog) may kill paths while iterating.
func (mgr *Manager) Paths() []*Path {
	return append([]*Path(nil), mgr.order...)
}

// dropPath removes p from the live-path bookkeeping.
func (mgr *Manager) dropPath(p *Path) {
	delete(mgr.paths, p)
	delete(mgr.byOwner, &p.Owner)
	for i, q := range mgr.order {
		if q == p {
			mgr.order = append(mgr.order[:i], mgr.order[i+1:]...)
			break
		}
	}
}

// PathByOwner returns the live path whose owner is o (the containment
// policy resolves a runaway thread's owner to its path this way).
func (mgr *Manager) PathByOwner(o *core.Owner) *Path {
	return mgr.byOwner[o]
}

// Kernel returns the kernel.
func (mgr *Manager) Kernel() *kernel.Kernel { return mgr.k }

// Graph returns the module graph.
func (mgr *Manager) Graph() *module.Graph { return mgr.graph }

// Live returns the number of live paths.
func (mgr *Manager) Live() int { return len(mgr.paths) }

var _ module.PathFactory = (*Manager)(nil)

// CreatePath implements module.PathFactory: the pathCreate kernel call.
// The topology is determined incrementally: the kernel invokes the open
// function (CreateStage) of the starting module, which names the next
// module, and so on. Creation cost is charged to the calling context
// (the passive path creating an active path pays for it, as Table 1's
// passive-path row shows); the new path's objects are charged to the
// new owner.
func (mgr *Manager) CreatePath(ctx *kernel.Ctx, name, start string, attrs lib.Attrs) (module.PathRef, error) {
	p, err := mgr.create(ctx, name, start, attrs)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Create is CreatePath returning the concrete type.
func (mgr *Manager) Create(ctx *kernel.Ctx, name, start string, attrs lib.Attrs) (*Path, error) {
	return mgr.create(ctx, name, start, attrs)
}

func (mgr *Manager) create(ctx *kernel.Ctx, name, start string, attrs lib.Attrs) (*Path, error) {
	k := mgr.k
	model := k.Model()
	tr := mgr.tracer
	// The allocation failpoint fires before the path owner exists or
	// any charge lands, so a failed create needs no refunds.
	if mgr.failKmem.Fire() {
		if tr != nil {
			tr.Fault("failpoint", name, "kmem.alloc", k.Engine().Now())
		}
		k.FaultCounters().Inc(name)
		return nil, fmt.Errorf("path: create %q: %w", name, fault.ErrInjected)
	}
	var began sim.Cycles
	if tr != nil {
		began = k.Engine().Now()
	}

	p := &Path{
		Owner: core.Owner{Name: name, Type: core.PathOwner},
		name:  name,
		mgr:   mgr,
		work:  lib.MakeQueue(inQueueCap),
	}
	p.stages = p.stageBuf[:0]
	p.handles = p.handleBuf[:0]
	k.AdoptOwner(&p.Owner)
	p.Owner.ChargeKmem(pathKmem)
	p.staticKmem = pathKmem

	// Creation cost is charged to the path being created: Table 1 shows
	// the passive path's per-connection share staying small even though
	// it triggers active-path creation.
	charge := func(c sim.Cycles) {
		k.Burn(&p.Owner, c)
	}
	_ = ctx
	charge(model.PathCreate + k.AccountingTax())

	// Incremental open walk, bounded so a miswired graph (a cycle in the
	// open chain) fails loudly instead of building an endless path.
	b := &builder{p: p}
	b.stages = b.stageBuf[:0]
	cur := start
	for {
		if len(p.stages) >= maxPathLen {
			mgr.abortCreate(p)
			return nil, fmt.Errorf("path: open chain exceeded %d modules (cycle?)", maxPathLen)
		}
		node, ok := mgr.graph.Node(cur)
		if !ok {
			p.Owner.RefundKmem(pathKmem)
			p.Owner.MarkDead()
			return nil, fmt.Errorf("path: unknown module %q", cur)
		}
		// A handle stays valid when a path longer than inlineStages
		// moves handles to the heap: it is immutable, so a module holding
		// a pointer into the old array sees the same path and index.
		p.handles = append(p.handles, stageHandle{p: p, idx: len(p.stages)})
		b.node, b.handle = node, &p.handles[len(p.stages)]
		charge(model.PathOpenPerModule)
		st, next, err := node.Mod().CreateStage(b, attrs)
		if err != nil {
			mgr.abortCreate(p)
			return nil, fmt.Errorf("path: open %q: %w", cur, err)
		}
		p.stages = append(p.stages, StageRec{Node: node, Stage: st})
		b.stages = append(b.stages, st)
		if next == "" {
			break
		}
		if !node.ConnectedTo(next) {
			mgr.abortCreate(p)
			return nil, fmt.Errorf("%w: %q -> %q", ErrNoEdge, cur, next)
		}
		cur = next
	}

	p.findDomains()

	// Allowed protection-domain crossings: adjacent stage pairs, both
	// directions (the ICMP example crosses the same domain twice).
	p.allowed = lib.NewHash(8)
	for i := 1; i < len(p.stages); i++ {
		a := p.stages[i-1].Node.Domain().ID()
		b := p.stages[i].Node.Domain().ID()
		if a != b {
			p.allowed.Put(lib.PairKey(uint32(a), uint32(b)), true)
			p.allowed.Put(lib.PairKey(uint32(b), uint32(a)), true)
		}
	}
	hashKmem := uint64(p.allowed.MemSize())
	p.Owner.ChargeKmem(hashKmem)
	p.staticKmem += hashKmem

	p.workSem = k.NewSemaphore(&p.Owner, name+":work", 0)
	for i := 0; i < workerCount; i++ {
		if _, err := k.SpawnChecked(&p.Owner, name+":worker", p.worker, SpawnOptsForPath(p)); err != nil {
			// A path without its worker pool would hang on arrival;
			// abort and reclaim instead (abortCreate releases every
			// charge made so far).
			mgr.abortCreate(p)
			return nil, fmt.Errorf("path: create %q: %w", name, err)
		}
	}

	// A destroyed protection domain takes every path crossing it down
	// with it (§2.4). Hooks are deregistered when the path dies first.
	for _, d := range p.doms {
		if d.Privileged() {
			continue
		}
		id := d.AddDestroyHook(func() {
			if p.alive {
				mgr.Kill(p)
			}
		})
		p.domHooks = append(p.domHooks, domHook{d: d, id: id})
	}

	p.alive = true
	mgr.paths[p] = struct{}{}
	mgr.order = append(mgr.order, p)
	mgr.byOwner[&p.Owner] = p
	if tr != nil {
		tr.PathCreate(name, len(p.stages), began, k.Engine().Now())
	}
	return p, nil
}

// SpawnOptsForPath builds the spawn options for a thread executing on
// behalf of path p (exported for the escort assembly's service threads).
func SpawnOptsForPath(p *Path) kernel.SpawnOpts {
	return kernel.SpawnOpts{Allowed: p.allowed}
}

func (mgr *Manager) abortCreate(p *Path) {
	// Partial path: reclaim what was built, without destructors. Kill
	// hooks run first, while the owner is still live, so modules whose
	// CreateStage already ran can drop their per-path state and refund
	// their charges (TCP's TCB is the canonical case); then the
	// manager's own static charges come back, leaving the dead owner's
	// books at zero.
	for _, fn := range p.killHooks {
		fn()
	}
	p.killHooks = nil
	p.drainQueue()
	p.Owner.RefundKmem(p.staticKmem)
	mgr.k.DestroyOwner(&p.Owner, true)
}

// Destroy is pathDestroy: run each module's destructor in the order the
// stages were initialized (crossing into each module's domain), release
// the path's heap charges in every crossed domain, then free all kernel
// resources. A referenced path destroys when the last reference drops.
func (mgr *Manager) Destroy(ctx *kernel.Ctx, p *Path) {
	if !p.alive {
		return
	}
	if p.refCnt > 0 {
		p.pendingDestroy = true
		return
	}
	p.alive = false
	tr := mgr.tracer
	var began sim.Cycles
	if tr != nil {
		began = mgr.k.Engine().Now()
	}
	model := mgr.k.Model()
	for _, rec := range p.stages {
		rec := rec
		charge := func(c sim.Cycles) {
			if ctx != nil {
				ctx.Use(c)
			} else {
				mgr.k.Burn(mgr.k.KernelOwner(), c)
			}
		}
		charge(model.PathDestroyPerStage)
		if ctx != nil {
			ctx.Cross(rec.Node.Domain().ID(), func() {
				rec.Stage.Destroy(ctx)
			})
		} else {
			rec.Stage.Destroy(nil)
		}
	}
	p.dropDomainHooks()
	p.drainQueue()
	p.releaseDomainCharges(false)
	p.Owner.RefundKmem(p.staticKmem)
	mgr.k.DestroyOwner(&p.Owner, false)
	mgr.dropPath(p)
	if tr != nil {
		tr.PathDestroy(p.name, began, mgr.k.Engine().Now())
	}
}

// Kill is pathKill: reclaim every resource the path owns, in every
// protection domain it crosses — device buffers, IPC, IOBuffer locks,
// threads, heap memory — without invoking destructors and without
// spending the victim's budget (reclamation is charged to the kernel).
// It returns the cycles the teardown consumed: the Table 2 measurement.
func (mgr *Manager) Kill(p *Path) sim.Cycles {
	if !p.alive {
		return 0
	}
	start := mgr.k.Engine().Now()
	p.alive = false
	mgr.Kills++
	for _, fn := range p.killHooks {
		fn()
	}
	p.killHooks = nil
	p.dropDomainHooks()
	p.drainQueue()
	p.releaseDomainCharges(true)
	p.Owner.RefundKmem(p.staticKmem)
	mgr.k.DestroyOwner(&p.Owner, true)
	mgr.dropPath(p)
	reclaimed := mgr.k.Engine().Now() - start
	if tr := mgr.tracer; tr != nil {
		tr.PathKill(p.name, reclaimed, start, mgr.k.Engine().Now())
	}
	return reclaimed
}

// dropDomainHooks deregisters the path's domain destroy hooks.
func (p *Path) dropDomainHooks() {
	for _, h := range p.domHooks {
		if !h.d.Destroyed() {
			h.d.RemoveDestroyHook(h.id)
		}
	}
	p.domHooks = nil
}

// drainQueue frees the queued messages and releases the queue's ring.
func (p *Path) drainQueue() {
	p.work.Flush(func(v any) {
		if item, ok := v.(*workItem); ok && item.m != nil {
			item.m.Free()
		}
	})
}

// releaseDomainCharges frees the path's heap objects in every crossed
// domain. Under pathKill the kernel does the sweep itself (and pays the
// per-domain visit the paper's Table 2 numbers reflect); under orderly
// destroy the module destructors have normally done it already and this
// is a backstop.
func (p *Path) releaseDomainCharges(kill bool) {
	k := p.mgr.k
	model := k.Model()
	for _, d := range p.doms {
		freed := d.Heap().ReleaseFor(&p.Owner)
		if kill && !d.Privileged() {
			k.Burn(k.KernelOwner(), model.PathKillPerDomain)
		}
		_ = freed
	}
}

// Package path implements Scout's path abstraction (§2.2, §3.1) with
// Escort's extensions: the path is both the logical I/O channel through
// the module graph and the owner to which all of its resources are
// charged. A path is created incrementally (each module's open function
// names the next module), identified incrementally at demux time, and
// destroyed either orderly (pathDestroy: module destructors run, in
// initialization order) or summarily (pathKill: every resource across
// every protection domain is reclaimed without running destructors —
// the containment primitive measured in Table 2). Both, and a create
// that fails part-way, return the path's resources through one routine,
// Manager.reclaim.
package path

import (
	"encoding/binary"
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

// The work queue holds three kinds of item, none boxed per call: an
// inbound *msg.Msg as it arrived, a *ctlItem for EnqueueControl, and
// destroyReq for RequestDestroy.
type ctlItem struct {
	idx int
	fn  func(ctx *kernel.Ctx, st module.Stage)
}

type destroyRequest struct{}

// destroyReq is the one destroy request every path queues.
var destroyReq = new(destroyRequest)

// StageRec pairs a graph node with the stage the module contributed.
type StageRec struct {
	Node  *module.Node
	Stage module.Stage
}

// Path is the path object (Figure 6): the Owner structure is its first
// element, followed by the allowed protection-domain crossings, the
// stage list, the work queue and the thread pool. Figure 6 draws four
// queues, input and output at each end; this path has one inbound work
// queue, since outbound messages run the stages on the sender's thread.
// The stage, handle and domain lists live in inline arrays for paths of
// up to inlineStages modules, and the allowed-crossings table is shared
// by every path over the same domain chain. Everything the path holds
// comes back through Manager.reclaim, which also releases the queue's
// ring: a module or a dying thread may still reference a dead Path.
type Path struct {
	Owner core.Owner

	name    string
	mgr     *Manager
	allowed *lib.Hash // shared with every path over the same domain chain; read-only
	stages  []StageRec
	handles []stageHandle
	doms    []*domain.Domain // distinct domains crossed, in stage order
	work    lib.Queue        // inbound messages and control items
	workSem *kernel.Semaphore

	alive        bool
	destroyAsked bool            // RequestDestroy found the queue full
	ctlQueued    bool            // ctl sits in the work queue
	staticKmem   uint64          // path struct + crossings hash charge
	killHook     module.KillHook // run by reclaim under kill, before the owner dies
	ctl          ctlItem         // the control item queued when none is pending

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

// StageAt returns the stage at index i.
func (p *Path) StageAt(i int) module.Stage { return p.stages[i].Stage }

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

// OnKill registers h to run if the path is summarily killed or its
// create fails, while the path's owner can still receive refunds.
// Module-level per-path state that is charged but not kernel-tracked
// (the TCP module's TCBs) registers here so pathKill reclaims 100% of
// the owner's resources. A path holds one hook; the hook does not run
// on orderly destroy — module destructors own that.
func (p *Path) OnKill(h module.KillHook) {
	if p.killHook != nil {
		panic("path: second kill hook on " + p.name)
	}
	p.killHook = h
}

// Domains returns the distinct protection domains the path crosses, in
// stage order. The slice is the path's own; callers must not modify it.
func (p *Path) Domains() []*domain.Domain { return p.doms }

// findDomains lists the distinct domains of the stages, in stage order.
func (p *Path) findDomains() {
	p.doms = p.domBuf[:0]
	for _, rec := range p.stages {
		if d := rec.Node.Domain(); !slices.Contains(p.doms, d) {
			p.doms = append(p.doms, d) //escort:coldpath inline for up to inlineStages domains
		}
	}
}

// EnqueueIn hands an inbound message (from demux) to the path from
// interrupt context. The enqueue and wakeup costs are charged to the
// path — part of the per-datagram cost visible in the SYN-attack
// experiment.
func (p *Path) EnqueueIn(m *msg.Msg) error {
	if !p.alive {
		m.Free()
		return ErrPathDead
	}
	k := p.mgr.k
	k.Burn(&p.Owner, k.Model().QueueOp)
	if err := p.work.Enqueue(m); err != nil {
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
	item := &p.ctl
	if p.ctlQueued {
		item = &ctlItem{} //escort:coldpath a second control item while the path's own one waits (an RTO behind the SYN-ACK)
	}
	item.idx, item.fn = idx, fn
	if err := p.work.Enqueue(item); err != nil {
		item.fn = nil
		p.Drops++
		return ErrQueueFull
	}
	if item == &p.ctl {
		p.ctlQueued = true
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
	if err := p.work.Enqueue(destroyReq); err != nil {
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
		switch item := v.(type) {
		case *destroyRequest:
			p.mgr.Destroy(ctx, p)
			return
		case *msg.Msg:
			p.Delivered++
			_ = p.deliverFrom(ctx, len(p.stages)-1, module.Up, item)
			item.Free()
		case *ctlItem:
			rec, fn := p.stages[item.idx], item.fn
			item.fn = nil
			if item == &p.ctl {
				p.ctlQueued = false
			}
			//escort:coldpath Cross runs the closure before it returns and keeps no reference: it stays on the stack
			ctx.Cross(rec.Node.Domain().ID(), func() {
				fn(ctx, rec.Stage)
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
	//escort:coldpath Cross runs the closure before it returns and keeps no reference: it stays on the stack
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

// builder implements module.PathBuilder during incremental creation.
// Each Manager has one, since creates never nest; handle moves to each
// new stage in turn.
type builder struct {
	p        *Path
	handle   *stageHandle
	stages   []module.Stage // p's stages so far, append-only
	stageBuf [inlineStages]module.Stage
}

func (b *builder) Kernel() *kernel.Kernel     { return b.p.mgr.k }
func (b *builder) PathOwner() *core.Owner     { return &b.p.Owner }
func (b *builder) Handle() module.StageHandle { return b.handle }

// Stages returns the stages opened so far. The slice is the builder's
// and is valid only during the CreateStage call; the next create
// reuses its backing.
func (b *builder) Stages() []module.Stage {
	return b.stages[:len(b.stages):len(b.stages)]
}

func (b *builder) NodeAt(i int) *module.Node { return b.p.stages[i].Node }

// Manager creates, identifies (demux), and destroys paths.
type Manager struct {
	k       *kernel.Kernel
	graph   *module.Graph
	order   []*Path // live paths in creation order (deterministic iteration)
	byOwner map[*core.Owner]*Path
	tracer  *obs.Tracer // resolved once from the kernel; nil when disabled

	failKmem *fault.Point // "kmem.alloc" failpoint, resolved once

	classifier FrameClassifier

	b builder // the create in progress; b.p is nil between creates
	// crossings holds one allowed-crossings table per distinct domain
	// chain, keyed by the stages' domain IDs in stage order. Domain IDs
	// are never reused, so a table stays right for as long as its chain
	// can be built; paths only read it.
	crossings map[string]*lib.Hash
	watched   map[domain.ID]bool // domains whose destroy hook is armed

	// DemuxRejects counts messages dropped during demultiplexing.
	DemuxRejects uint64
	// PatternHits and PatternMisses count classifier outcomes when a
	// pattern demultiplexer is installed.
	PatternHits, PatternMisses uint64
	// Kills counts pathKill invocations.
	Kills uint64
}

// NewManager returns a path manager over the given graph.
//
//escort:coldpath constructor, once per server
func NewManager(g *module.Graph) *Manager {
	return &Manager{
		k:         g.Kernel(),
		graph:     g,
		byOwner:   make(map[*core.Owner]*Path),
		crossings: make(map[string]*lib.Hash),
		watched:   make(map[domain.ID]bool),
		tracer:    g.Kernel().Tracer(),
		failKmem:  g.Kernel().FaultSet().Point("kmem.alloc"),
	}
}

// Paths returns the live paths in creation order. The slice is a
// copy, so callers (the watchdog) may kill paths while iterating.
func (mgr *Manager) Paths() []*Path {
	return append([]*Path(nil), mgr.order...)
}

// dropPath removes p from the live-path bookkeeping.
func (mgr *Manager) dropPath(p *Path) {
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

// Live returns the number of live paths.
func (mgr *Manager) Live() int { return len(mgr.byOwner) }

var _ module.PathFactory = (*Manager)(nil)

// CreatePath implements module.PathFactory with Create.
func (mgr *Manager) CreatePath(ctx *kernel.Ctx, name, start string, attrs lib.Attrs) (module.PathRef, error) {
	p, err := mgr.Create(ctx, name, start, attrs)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Create is the pathCreate kernel call. The topology is determined
// incrementally: the kernel invokes the open function (CreateStage) of
// the starting module, which names the next module, and so on. The
// creation cost and the new path's objects are charged to the new
// path. A create that fails part-way reclaims what it built as
// pathKill does, without counting a kill.
func (mgr *Manager) Create(ctx *kernel.Ctx, name, start string, attrs lib.Attrs) (*Path, error) {
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

	p := &Path{ //escort:coldpath the path object, the owner a connection's charges land on: creation is charged (PathCreate + kmem)
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
	k.Burn(&p.Owner, model.PathCreate+k.AccountingTax())

	// Incremental open walk, bounded so a miswired graph (a cycle in the
	// open chain) fails loudly instead of building an endless path.
	b := mgr.beginBuild(p)
	defer mgr.endBuild()
	cur := start
	for {
		if len(p.stages) >= maxPathLen {
			mgr.reclaim(p, true)
			return nil, fmt.Errorf("path: open chain exceeded %d modules (cycle?)", maxPathLen)
		}
		node, ok := mgr.graph.Node(cur)
		if !ok {
			mgr.reclaim(p, true)
			return nil, fmt.Errorf("path: unknown module %q", cur)
		}
		// A handle stays valid when a path longer than inlineStages
		// moves handles to the heap: it is immutable, so a module holding
		// a pointer into the old array sees the same path and index.
		p.handles = append(p.handles, stageHandle{p: p, idx: len(p.stages)}) //escort:coldpath inline for up to inlineStages stages
		b.handle = &p.handles[len(p.stages)]
		k.Burn(&p.Owner, model.PathOpenPerModule)
		st, next, err := node.Mod().CreateStage(b, attrs)
		if err != nil {
			mgr.reclaim(p, true)
			return nil, fmt.Errorf("path: open %q: %w", cur, err)
		}
		p.stages = append(p.stages, StageRec{Node: node, Stage: st}) //escort:coldpath inline for up to inlineStages stages
		b.stages = append(b.stages, st)                              //escort:coldpath as above
		if next == "" {
			break
		}
		if !node.ConnectedTo(next) {
			mgr.reclaim(p, true)
			return nil, fmt.Errorf("%w: %q -> %q", ErrNoEdge, cur, next)
		}
		cur = next
	}

	// Each path is charged for its allowed-crossings table as if it
	// held its own copy.
	p.allowed = mgr.crossingsFor(p.stages)
	hashKmem := uint64(p.allowed.MemSize())
	p.Owner.ChargeKmem(hashKmem)
	p.staticKmem += hashKmem

	p.workSem = k.NewSemaphore(&p.Owner, 0)
	for i := 0; i < workerCount; i++ {
		//escort:coldpath the worker's name, which traces show, is built once per path
		if _, err := k.SpawnChecked(&p.Owner, name+":worker", p.worker, SpawnOptsForPath(p)); err != nil {
			// A path without its worker pool would hang on arrival;
			// reclaim it instead.
			mgr.reclaim(p, true)
			return nil, fmt.Errorf("path: create %q: %w", name, err)
		}
	}
	// The crossed domains are listed only once the path is complete: a
	// failed create is reclaimed without the per-domain sweep a kill
	// pays for.
	p.findDomains()

	// A destroyed protection domain takes every path crossing it down
	// with it (§2.4).
	for _, d := range p.doms {
		if !d.Privileged() && !mgr.watched[d.ID()] {
			mgr.watch(d)
		}
	}

	p.alive = true
	mgr.order = append(mgr.order, p) //escort:coldpath live-path list grows to the most paths alive at once; dropPath shrinks it in place
	mgr.byOwner[&p.Owner] = p
	if tr != nil {
		tr.PathCreate(name, len(p.stages), began, k.Engine().Now())
	}
	return p, nil
}

// watch arms d's destroy hook: kill every live path crossing d, in
// creation order.
//
//escort:coldpath once per domain, at the first path crossing it
func (mgr *Manager) watch(d *domain.Domain) {
	mgr.watched[d.ID()] = true
	d.AddDestroyHook(func() {
		for _, p := range mgr.Paths() {
			if p.alive && slices.Contains(p.doms, d) {
				mgr.Kill(p)
			}
		}
	})
}

// beginBuild readies the Manager's builder for a create of p.
func (mgr *Manager) beginBuild(p *Path) *builder {
	b := &mgr.b
	if b.p != nil {
		panic("path: nested create of " + p.name + " inside " + b.p.name)
	}
	b.p = p
	b.stages = b.stageBuf[:0]
	return b
}

// endBuild clears the builder, so it keeps no finished or failed path
// alive.
func (mgr *Manager) endBuild() { mgr.b = builder{} }

// crossingsFor returns the allowed-crossings table of a path over
// stages: adjacent stage pairs in different domains, both directions
// (the ICMP example crosses the same domain twice). The table is built
// on the first path over a domain chain and shared by every later one.
func (mgr *Manager) crossingsFor(stages []StageRec) *lib.Hash {
	var buf [4 * maxPathLen]byte
	key := buf[:0]
	for _, rec := range stages {
		key = binary.LittleEndian.AppendUint32(key, uint32(rec.Node.Domain().ID()))
	}
	if h, ok := mgr.crossings[string(key)]; ok {
		return h
	}
	return mgr.buildCrossings(string(key), stages)
}

// buildCrossings builds and records the table for a new domain chain.
//
//escort:coldpath once per distinct domain chain, not per path
func (mgr *Manager) buildCrossings(key string, stages []StageRec) *lib.Hash {
	h := lib.NewHash(8)
	for i := 1; i < len(stages); i++ {
		a := stages[i-1].Node.Domain().ID()
		b := stages[i].Node.Domain().ID()
		if a != b {
			h.Put(lib.PairKey(uint32(a), uint32(b)), true)
			h.Put(lib.PairKey(uint32(b), uint32(a)), true)
		}
	}
	mgr.crossings[key] = h
	return h
}

// SpawnOptsForPath builds the spawn options for a thread executing on
// behalf of path p (exported for the escort assembly's service threads).
func SpawnOptsForPath(p *Path) kernel.SpawnOpts {
	return kernel.SpawnOpts{Allowed: p.allowed}
}

// Destroy is pathDestroy: run each module's destructor in the order the
// stages were initialized (crossing into each module's domain), release
// the path's heap charges in every crossed domain, then free all kernel
// resources.
func (mgr *Manager) Destroy(ctx *kernel.Ctx, p *Path) {
	if !p.alive {
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
		if ctx == nil {
			mgr.k.Burn(mgr.k.KernelOwner(), model.PathDestroyPerStage)
			rec.Stage.Destroy(nil)
			continue
		}
		ctx.Use(model.PathDestroyPerStage)
		//escort:coldpath Cross runs the closure before it returns and keeps no reference: it stays on the stack
		ctx.Cross(rec.Node.Domain().ID(), func() {
			rec.Stage.Destroy(ctx)
		})
	}
	mgr.reclaim(p, false)
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
	mgr.reclaim(p, true)
	reclaimed := mgr.k.Engine().Now() - start
	if tr := mgr.tracer; tr != nil {
		tr.PathKill(p.name, reclaimed, start, mgr.k.Engine().Now())
	}
	return reclaimed
}

// reclaim returns everything p holds and retires its owner: the tail of
// pathDestroy, the whole of pathKill, and the unwinding of a failed
// create. Under kill the kill hooks run first, while the owner can
// still take refunds, so modules drop their per-path state; the kernel
// then sweeps every crossed domain at its own expense. The owner dies
// with its books at zero.
func (mgr *Manager) reclaim(p *Path, kill bool) {
	if kill && p.killHook != nil {
		p.killHook.PathKilled()
	}
	p.killHook = nil
	p.drainQueue()
	p.releaseDomainCharges(kill)
	p.Owner.RefundKmem(p.staticKmem)
	mgr.k.DestroyOwner(&p.Owner, kill)
	mgr.dropPath(p)
}

// drainQueue frees the queued messages and releases the queue's ring.
func (p *Path) drainQueue() {
	p.work.Flush(func(v any) {
		if m, ok := v.(*msg.Msg); ok {
			m.Free()
		}
	})
	p.ctl.fn = nil
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
		d.Heap().ReleaseFor(&p.Owner)
		if kill && !d.Privileged() {
			k.Burn(k.KernelOwner(), model.PathKillPerDomain)
		}
	}
}

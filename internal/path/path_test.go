package path

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/sim"
)

// fakeMod is a test module: records deliveries, optionally consumes or
// replies, and chains to next.
type fakeMod struct {
	name      string
	next      string
	demuxNext string // demux continue target when it differs from next
	consume   bool   // stop forwarding at this stage
	reply     bool   // on Up delivery, send a reply back Down
	openErr   error

	opened    module.PathRef // path of the last CreateStage call
	delivered []string       // "up:<payload>" etc, across all stages
	destroyed int
}

type fakeStage struct {
	m *fakeMod
	h module.StageHandle
	o *core.Owner
}

func (f *fakeMod) Name() string               { return f.name }
func (f *fakeMod) Init(*module.InitCtx) error { return nil }

func (f *fakeMod) CreateStage(pb module.PathBuilder, attrs lib.Attrs) (module.Stage, string, error) {
	f.opened = pb.Handle().Path()
	if f.openErr != nil {
		return nil, "", f.openErr
	}
	return &fakeStage{m: f, h: pb.Handle(), o: pb.PathOwner()}, f.next, nil
}

func (f *fakeMod) Demux(dc *module.DemuxCtx, m *msg.Msg) module.Verdict {
	next := f.next
	if f.demuxNext != "" {
		next = f.demuxNext
	}
	if next != "" {
		return module.Continue(next)
	}
	return module.Reject("end of chain")
}

func (s *fakeStage) Deliver(ctx *kernel.Ctx, dir module.Direction, m *msg.Msg) (bool, error) {
	ctx.Use(100)
	s.m.delivered = append(s.m.delivered, fmt.Sprintf("%s:%s", dir, m.Bytes()))
	if s.m.reply && dir == module.Up {
		reply := msg.FromBytes(s.o, []byte("reply"))
		if err := s.h.SendDown(ctx, reply); err != nil {
			return false, err
		}
	}
	return !s.m.consume, nil
}

func (s *fakeStage) Destroy(*kernel.Ctx) { s.m.destroyed++ }

type env struct {
	k   *kernel.Kernel
	g   *module.Graph
	mgr *Manager
}

// buildEnv assembles a 3-module chain app-mid-dev, optionally one domain
// per module.
func buildEnv(t *testing.T, perModuleDomains bool, app, mid, dev *fakeMod) *env {
	t.Helper()
	k := kernel.New(sim.New(), cost.Default(), kernel.Config{Accounting: true})
	t.Cleanup(k.Stop)
	g := module.NewGraph(k)
	domFor := func(name string) string {
		if !perModuleDomains {
			return ""
		}
		k.Domains().Create(name)
		return name
	}
	g.Add("app", app, domFor("app"))
	g.Add("mid", mid, domFor("mid"))
	g.Add("dev", dev, domFor("dev"))
	g.Connect("app", "mid", module.AIO)
	g.Connect("mid", "dev", module.AIO)
	mgr := NewManager(g)
	if err := g.Init(mgr, mgr.DeliverInbound); err != nil {
		t.Fatal(err)
	}
	return &env{k: k, g: g, mgr: mgr}
}

func chain() (*fakeMod, *fakeMod, *fakeMod) {
	app := &fakeMod{name: "app", next: ""} // terminal
	mid := &fakeMod{name: "mid", next: "app"}
	dev := &fakeMod{name: "dev", next: "mid"}
	return app, mid, dev
}

// createPath builds app->mid->dev starting at app (stage 0 = app).
func createPath(t *testing.T, e *env) *Path {
	t.Helper()
	app := &fakeChainStart{}
	_ = app
	p, err := e.mgr.Create(nil, "p0", "app", lib.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

type fakeChainStart struct{}

func appFirst(app, mid, dev *fakeMod) {
	// path creation order: app -> mid -> dev
	app.next = "mid"
	mid.next = "dev"
	dev.next = ""
}

func TestCreateWalksOpenChain(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)
	if len(p.Stages()) != 3 {
		t.Fatalf("stages = %d", len(p.Stages()))
	}
	names := []string{"app", "mid", "dev"}
	for i, rec := range p.Stages() {
		if rec.Node.Name() != names[i] {
			t.Fatalf("stage %d = %q, want %q", i, rec.Node.Name(), names[i])
		}
	}
	if p.PathOwner().Counters.Kmem == 0 {
		t.Fatal("path kmem not charged")
	}
	if e.mgr.Live() != 1 {
		t.Fatal("manager does not track path")
	}
}

func TestCreateFailsOnMissingEdge(t *testing.T) {
	app, mid, dev := chain()
	app.next = "dev" // app-dev are NOT connected
	e := buildEnv(t, false, app, mid, dev)
	if _, err := e.mgr.Create(nil, "p", "app", lib.Attrs{}); !errors.Is(err, ErrNoEdge) {
		t.Fatalf("err = %v, want ErrNoEdge", err)
	}
	_ = mid
	_ = dev
}

func TestCreateUnwindsOnOpenError(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	dev.openErr = errors.New("device unavailable")
	e := buildEnv(t, false, app, mid, dev)
	free := e.k.Pages().FreePages()
	if _, err := e.mgr.Create(nil, "p", "app", lib.Attrs{}); err == nil {
		t.Fatal("create with failing open succeeded")
	}
	if e.k.Pages().FreePages() != free {
		t.Fatal("partial path leaked pages")
	}
	if e.mgr.Live() != 0 {
		t.Fatal("failed path left registered")
	}
	if e.k.LiveThreads() != 0 {
		t.Fatal("failed path left threads")
	}
}

// A create naming an unknown module unwinds through the same
// reclamation as any other failed create: its owner dies holding
// nothing.
func TestCreateFromUnknownModuleReclaims(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	ledger := e.k.Ledger()
	before := ledger.Snapshot(e.k.Engine().Now())
	if _, err := e.mgr.Create(nil, "p", "nosuch", lib.Attrs{}); err == nil {
		t.Fatal("create from an unknown module succeeded")
	}
	if err := ledger.CheckContainment(before, ledger.Snapshot(e.k.Engine().Now())); err != nil {
		t.Fatal(err)
	}
	if e.mgr.Live() != 0 {
		t.Fatal("failed path left registered")
	}
}

func TestInboundDeliveryFlowsUp(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)

	m := msg.FromBytes(e.k.KernelOwner(), []byte("pkt"))
	if err := p.EnqueueIn(m); err != nil {
		t.Fatal(err)
	}
	e.k.RunFor(10_000_000)

	for _, fm := range []*fakeMod{dev, mid, app} {
		if len(fm.delivered) != 1 || fm.delivered[0] != "up:pkt" {
			t.Fatalf("%s delivered %v", fm.name, fm.delivered)
		}
	}
	if p.Delivered != 1 {
		t.Fatalf("delivered count = %d", p.Delivered)
	}
}

func TestConsumeStopsForwarding(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	mid.consume = true
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)
	_ = p.EnqueueIn(msg.FromBytes(e.k.KernelOwner(), []byte("pkt")))
	e.k.RunFor(10_000_000)
	if len(mid.delivered) != 1 {
		t.Fatal("mid did not see message")
	}
	if len(app.delivered) != 0 {
		t.Fatal("consumed message still reached app")
	}
	_ = dev
}

func TestReplyFlowsDownThePath(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	app.reply = true
	e := buildEnv(t, true, app, mid, dev) // separate domains: exercises crossings
	p := createPath(t, e)
	_ = p.EnqueueIn(msg.FromBytes(e.k.KernelOwner(), []byte("req")))
	e.k.RunFor(50_000_000)
	// dev must see the request (up) and the reply (down).
	if len(dev.delivered) != 2 || dev.delivered[0] != "up:req" || dev.delivered[1] != "down:reply" {
		t.Fatalf("dev delivered %v", dev.delivered)
	}
	if len(mid.delivered) != 2 {
		t.Fatalf("mid delivered %v", mid.delivered)
	}
}

func TestPerDomainCrossingsCostMore(t *testing.T) {
	run := func(perDomain bool) sim.Cycles {
		app, mid, dev := chain()
		appFirst(app, mid, dev)
		app.reply = true
		e := buildEnv(t, perDomain, app, mid, dev)
		p := createPath(t, e)
		start := p.PathOwner().Counters.Cycles
		for i := 0; i < 10; i++ {
			_ = p.EnqueueIn(msg.FromBytes(e.k.KernelOwner(), []byte("req")))
		}
		e.k.RunFor(200_000_000)
		return p.PathOwner().Counters.Cycles - start
	}
	single := run(false)
	multi := run(true)
	if multi < single*2 {
		t.Fatalf("per-domain config cycles %d not substantially above single-domain %d", multi, single)
	}
}

func TestDemuxChainIdentifiesPath(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)

	// Make app's demux return the path.
	found := &demuxFoundMod{p: p}
	e.g.Add("classifier", found, "")
	e.g.Connect("app", "classifier", module.AIO)
	app.next = "" // irrelevant for demux

	// dev -> mid -> app chain then Found at classifier.
	dev.next = "mid"
	mid.next = "app"
	appDemuxNext(app, "classifier")

	m := msg.FromBytes(e.k.KernelOwner(), []byte("pkt"))
	got, v := e.mgr.Demux("dev", m)
	if got != p || v.Kind != module.VerdictFound {
		t.Fatalf("demux = %v %v", got, v)
	}
	if p.PathOwner().Counters.Cycles == 0 {
		t.Fatal("demux cost not charged to path")
	}
	m.Free()
}

// demuxFoundMod returns Found(p) at demux.
type demuxFoundMod struct {
	p *Path
}

func (d *demuxFoundMod) Name() string               { return "classifier" }
func (d *demuxFoundMod) Init(*module.InitCtx) error { return nil }
func (d *demuxFoundMod) CreateStage(module.PathBuilder, lib.Attrs) (module.Stage, string, error) {
	return nil, "", errors.New("not a path module")
}
func (d *demuxFoundMod) Demux(*module.DemuxCtx, *msg.Msg) module.Verdict {
	return module.Found(d.p)
}

// appDemuxNext redirects app's demux Continue target.
func appDemuxNext(app *fakeMod, next string) { app.next = next }

func TestDemuxRejectChargesEntryDomain(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	app.next = "" // demux at app rejects
	dev.next = "mid"
	mid.next = "app"
	m := msg.FromBytes(e.k.KernelOwner(), []byte("junk"))
	p, v := e.mgr.Demux("dev", m)
	if p != nil || v.Kind != module.VerdictReject {
		t.Fatalf("demux = %v %v", p, v)
	}
	if e.mgr.DemuxRejects != 1 {
		t.Fatal("reject not counted")
	}
	m.Free()
}

func TestDestroyRunsDestructorsInInitOrder(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)

	var order []string
	app2 := p.Stages()[0].Stage.(*fakeStage)
	_ = app2
	// Track destroy order via the module counters plus a shared slice.
	for i, name := range []string{"app", "mid", "dev"} {
		rec := p.Stages()[i]
		fs := rec.Stage.(*fakeStage)
		orig := fs.m
		_ = orig
		_ = name
		_ = fs
	}
	e.mgr.Destroy(nil, p)
	if app.destroyed != 1 || mid.destroyed != 1 || dev.destroyed != 1 {
		t.Fatalf("destructors: app=%d mid=%d dev=%d", app.destroyed, mid.destroyed, dev.destroyed)
	}
	_ = order
	if p.Alive() {
		t.Fatal("path still alive")
	}
	e.k.RunFor(1_000_000)
	if e.k.LiveThreads() != 0 {
		t.Fatal("worker thread leaked")
	}
	if p.PathOwner().Counters.Kmem != 0 {
		t.Fatalf("kmem leaked: %d", p.PathOwner().Counters.Kmem)
	}
}

func TestKillSkipsDestructorsAndReclaims(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, true, app, mid, dev)
	p := createPath(t, e)
	// Give the path heap charges in a crossed domain.
	d, _ := e.k.Domains().ByName("mid")
	if _, err := d.Heap().Alloc(512, p.PathOwner()); err != nil {
		t.Fatal(err)
	}
	cycles := e.mgr.Kill(p)
	if cycles == 0 {
		t.Fatal("kill consumed no cycles")
	}
	if app.destroyed+mid.destroyed+dev.destroyed != 0 {
		t.Fatal("pathKill ran destructors")
	}
	if d.Heap().OwedBy(p.PathOwner()) != 0 {
		t.Fatal("domain heap charges not swept")
	}
	e.k.RunFor(1_000_000)
	if e.k.LiveThreads() != 0 {
		t.Fatal("worker thread leaked after kill")
	}
	if e.mgr.Kills != 1 {
		t.Fatal("kill not counted")
	}
}

func TestDomainDestructionKillsCrossingPaths(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, true, app, mid, dev)
	p := createPath(t, e)
	d, _ := e.k.Domains().ByName("mid")
	e.k.Domains().Destroy(d)
	if p.Alive() {
		t.Fatal("path survived destruction of a domain it crosses")
	}
	e.k.RunFor(1_000_000)
	if e.k.LiveThreads() != 0 {
		t.Fatal("threads leaked")
	}
}

func TestQueueOverflowDropsAndCounts(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)
	// Without running the kernel, the worker never drains; fill the queue.
	overflow := 0
	for i := 0; i < inQueueCap+10; i++ {
		if err := p.EnqueueIn(msg.FromBytes(e.k.KernelOwner(), []byte("x"))); errors.Is(err, ErrQueueFull) {
			overflow++
		}
	}
	if overflow != 10 || p.Drops != 10 {
		t.Fatalf("overflow=%d drops=%d, want 10", overflow, p.Drops)
	}
}

func TestEnqueueOnDeadPathFails(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)
	e.mgr.Kill(p)
	if err := p.EnqueueIn(msg.FromBytes(e.k.KernelOwner(), []byte("x"))); !errors.Is(err, ErrPathDead) {
		t.Fatalf("err = %v, want ErrPathDead", err)
	}
	if err := p.EnqueueControl(0, func(*kernel.Ctx, module.Stage) {}); !errors.Is(err, ErrPathDead) {
		t.Fatalf("control err = %v, want ErrPathDead", err)
	}
}

func TestControlItemRunsInStageDomain(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, true, app, mid, dev)
	p := createPath(t, e)
	var ranIn string
	err := p.EnqueueControl(1, func(ctx *kernel.Ctx, st module.Stage) {
		ranIn = e.k.Domains().Get(ctx.Thread().CurrentDomain()).Name()
	})
	if err != nil {
		t.Fatal(err)
	}
	e.k.RunFor(50_000_000)
	if ranIn != "PD:mid" {
		t.Fatalf("control ran in %q, want PD:mid", ranIn)
	}
}

func TestFilterDropsNonMatchingTraffic(t *testing.T) {
	app, mid, dev := chain()
	// Creation order: app -> mid -> filter -> dev (filter interposed on
	// the mid/dev edge). Demux travels the other way: dev -> filter -> mid.
	app.next = "mid"
	mid.next = "filter"
	dev.next = ""
	dev.demuxNext = "filter"
	filter := module.NewFilter("filter", "dev", "mid", func(dir module.Direction, m *msg.Msg) bool {
		return len(m.Bytes()) > 0 && m.Bytes()[0] == 'A'
	})

	k := kernel.New(sim.New(), cost.Default(), kernel.Config{Accounting: true})
	t.Cleanup(k.Stop)
	g := module.NewGraph(k)
	g.Add("app", app, "")
	g.Add("mid", mid, "")
	g.Add("filter", filter, "")
	g.Add("dev", dev, "")
	g.Connect("app", "mid", module.AIO)
	g.Connect("mid", "filter", module.AIO)
	g.Connect("filter", "dev", module.AIO)
	mgr := NewManager(g)
	if err := g.Init(mgr, mgr.DeliverInbound); err != nil {
		t.Fatal(err)
	}
	// Path creation passes through the filter like any module.
	p, err := mgr.Create(nil, "p", "app", lib.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stages()) != 4 {
		t.Fatalf("stages = %d, want 4 (filter included)", len(p.Stages()))
	}
	_ = p.EnqueueIn(msg.FromBytes(k.KernelOwner(), []byte("Allowed")))
	_ = p.EnqueueIn(msg.FromBytes(k.KernelOwner(), []byte("blocked")))
	k.RunFor(50_000_000)
	if len(app.delivered) != 1 || app.delivered[0] != "up:Allowed" {
		t.Fatalf("app delivered %v", app.delivered)
	}
	if filter.Dropped != 1 {
		t.Fatalf("filter dropped %d", filter.Dropped)
	}
	// Filtered at demux time too.
	m := msg.FromBytes(k.KernelOwner(), []byte("bad"))
	if got, v := mgr.Demux("dev", m); got != nil || v.Kind != module.VerdictReject {
		t.Fatal("filter did not reject at demux")
	}
	m.Free()
}

func TestLedgerConservationThroughPathActivity(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	app.reply = true
	e := buildEnv(t, true, app, mid, dev)
	before := e.k.Ledger().Snapshot(e.k.Engine().Now())
	p := createPath(t, e)
	for i := 0; i < 20; i++ {
		_ = p.EnqueueIn(msg.FromBytes(e.k.KernelOwner(), []byte("req")))
	}
	e.k.RunFor(100_000_000)
	e.mgr.Kill(p)
	after := e.k.Ledger().Snapshot(e.k.Engine().Now())
	if d := after.Diff(before); d.Unaccounted() != 0 {
		t.Fatalf("unaccounted = %d of %d", d.Unaccounted(), d.Measured)
	}
}

// RequestDestroy on a full work queue must not be lost: TCP has already
// let go of the connection, so a dropped request would orphan the
// path's worker, semaphore, kmem and crossings hash for good.
func TestRequestDestroyOnFullQueue(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	ledger := e.k.Ledger()
	before := ledger.Snapshot(e.k.Engine().Now())
	p := createPath(t, e)
	ran := 0
	for i := 0; i < inQueueCap; i++ {
		if err := p.EnqueueControl(0, func(*kernel.Ctx, module.Stage) { ran++ }); err != nil {
			t.Fatalf("control item %d: %v", i, err)
		}
	}
	p.RequestDestroy()
	e.k.RunFor(100_000_000)
	if ran != inQueueCap {
		t.Fatalf("ran %d control items, want %d", ran, inQueueCap)
	}
	if e.mgr.Live() != 0 || e.k.LiveThreads() != 0 {
		t.Fatalf("live paths=%d threads=%d after destroy request", e.mgr.Live(), e.k.LiveThreads())
	}
	if err := ledger.CheckContainment(before, ledger.Snapshot(e.k.Engine().Now())); err != nil {
		t.Fatal(err)
	}
}

// With room in the queue, the destroy request keeps its FIFO place:
// work queued before it runs, work queued after it is dropped.
func TestRequestDestroyKeepsQueueOrder(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)
	var ran []int
	for i := 0; i < 2; i++ {
		_ = p.EnqueueControl(0, func(*kernel.Ctx, module.Stage) { ran = append(ran, i) })
	}
	p.RequestDestroy()
	_ = p.EnqueueControl(0, func(*kernel.Ctx, module.Stage) { ran = append(ran, 2) })
	e.k.RunFor(100_000_000)
	if len(ran) != 2 || ran[0] != 0 || ran[1] != 1 {
		t.Fatalf("ran %v, want [0 1]", ran)
	}
	if p.Alive() || e.k.LiveThreads() != 0 {
		t.Fatal("path survived its destroy request")
	}
}

// Teardown releases the work queue's ring: the ledger keeps every dead
// owner, and with it the Path.
func TestTeardownReleasesQueueStorage(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	fill := func(p *Path) {
		t.Helper()
		for i := 0; i < 5; i++ {
			_ = p.EnqueueIn(msg.FromBytes(e.k.KernelOwner(), []byte("x")))
		}
		if p.work.Slots() == 0 {
			t.Fatal("queued work but the queue holds no storage")
		}
	}
	destroyed := createPath(t, e)
	fill(destroyed)
	e.mgr.Destroy(nil, destroyed)
	killed := createPath(t, e)
	fill(killed)
	e.mgr.Kill(killed)
	for name, p := range map[string]*Path{"Destroy": destroyed, "Kill": killed} {
		if n := p.work.Slots(); n != 0 || p.PendingWork() != 0 {
			t.Errorf("after %s: queue slots=%d pending=%d", name, n, p.PendingWork())
		}
	}

	dev.openErr = errors.New("device unavailable")
	dev.opened = nil
	if _, err := e.mgr.Create(nil, "p", "app", lib.Attrs{}); err == nil {
		t.Fatal("create with failing open succeeded")
	}
	aborted := dev.opened.(*Path)
	if aborted.Alive() || aborted.work.Slots() != 0 {
		t.Errorf("after a failed create: alive=%v queue slots=%d", aborted.Alive(), aborted.work.Slots())
	}
}

// One create+destroy of the three-stage test path allocates a fixed
// number of objects; a regression in path set-up shows here.
func TestCreateDestroyAllocs(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	const ceiling = 19
	allocs := testing.AllocsPerRun(100, func() {
		p, err := e.mgr.Create(nil, "p0", "app", lib.Attrs{})
		if err != nil {
			t.Fatal(err)
		}
		e.mgr.Destroy(nil, p)
		e.k.RunFor(1_000_000)
	})
	if allocs > ceiling {
		t.Fatalf("create+destroy allocates %v objects, ceiling %d", allocs, ceiling)
	}
}

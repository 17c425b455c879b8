package module

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/msg"
	"repro/internal/sim"
)

type stubMod struct {
	name     string
	inits    int
	initFail error
}

func (m *stubMod) Init(ic *InitCtx) error {
	m.inits++
	return m.initFail
}
func (m *stubMod) CreateStage(PathBuilder, lib.Attrs) (Stage, string, error) {
	return nil, "", nil
}
func (m *stubMod) Demux(*msg.Msg) Verdict { return Reject("stub") }

func newKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	k := kernel.New(sim.New(), cost.Default(), kernel.Config{})
	t.Cleanup(k.Stop)
	return k
}

func TestGraphAddConnectLookup(t *testing.T) {
	k := newKernel(t)
	g := NewGraph(k)
	a := g.Add("a", &stubMod{name: "a"}, "")
	g.Add("b", &stubMod{name: "b"}, "")
	g.Connect("a", "b")
	if !a.ConnectedTo("b") {
		t.Fatal("edge missing")
	}
	if a.ConnectedTo("c") {
		t.Fatal("phantom edge")
	}
	if n, ok := g.Node("a"); !ok || n != a {
		t.Fatal("lookup failed")
	}
	if g.MustNode("b").Name() != "b" {
		t.Fatal("MustNode failed")
	}
	if len(g.Nodes()) != 2 {
		t.Fatal("Nodes() count")
	}
	if !a.Domain().Privileged() {
		t.Fatal("empty domain name must map to the kernel domain")
	}
}

func TestGraphDuplicateNodePanics(t *testing.T) {
	k := newKernel(t)
	g := NewGraph(k)
	g.Add("a", &stubMod{name: "a"}, "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	g.Add("a", &stubMod{name: "a2"}, "")
}

func TestGraphConnectUnknownPanics(t *testing.T) {
	k := newKernel(t)
	g := NewGraph(k)
	g.Add("a", &stubMod{name: "a"}, "")
	defer func() {
		if recover() == nil {
			t.Fatal("Connect to unknown node did not panic")
		}
	}()
	g.Connect("a", "nope")
}

func TestGraphUnknownDomainPanics(t *testing.T) {
	k := newKernel(t)
	g := NewGraph(k)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown domain did not panic")
		}
	}()
	g.Add("a", &stubMod{name: "a"}, "no-such-domain")
}

func TestGraphInitRunsEveryModuleOnce(t *testing.T) {
	k := newKernel(t)
	g := NewGraph(k)
	mods := []*stubMod{{name: "a"}, {name: "b"}, {name: "c"}}
	for _, m := range mods {
		g.Add(m.name, m, "")
	}
	if err := g.Init(nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, m := range mods {
		if m.inits != 1 {
			t.Fatalf("%s initialized %d times", m.name, m.inits)
		}
	}
}

func TestGraphInitPropagatesError(t *testing.T) {
	k := newKernel(t)
	g := NewGraph(k)
	g.Add("a", &stubMod{name: "a"}, "")
	g.Add("b", &stubMod{name: "b", initFail: ErrFiltered}, "")
	if err := g.Init(nil, nil); err == nil {
		t.Fatal("init error swallowed")
	}
}

func TestMultipleInstantiation(t *testing.T) {
	// The same module code under two names — the paper's multiple
	// instantiation.
	k := newKernel(t)
	g := NewGraph(k)
	shared := &stubMod{name: "tcp"}
	g.Add("tcp0", shared, "")
	g.Add("tcp1", shared, "")
	if err := g.Init(nil, nil); err != nil {
		t.Fatal(err)
	}
	if shared.inits != 2 {
		t.Fatalf("shared module initialized %d times, want once per instance", shared.inits)
	}
}

func TestVerdictConstructors(t *testing.T) {
	if v := Continue("x"); v.Kind != VerdictContinue || v.Next != "x" {
		t.Fatal("Continue")
	}
	if v := Reject("r"); v.Kind != VerdictReject || v.Reason != "r" {
		t.Fatal("Reject")
	}
	if v := Found(nil); v.Kind != VerdictFound {
		t.Fatal("Found")
	}
}

func TestFilterPredicateAndCounters(t *testing.T) {
	f := NewFilter("down", "up", func(dir Direction, m *msg.Msg) bool {
		return m != nil && m.Len() > 0
	})
	g := NewGraph(newKernel(t))
	g.Add("f", f, "")
	if err := g.Init(nil, nil); err != nil {
		t.Fatal(err)
	}
	o := core.NewOwner("t", core.PathOwner)
	empty := msg.New(o, 0, 0)
	if v := f.Demux(empty); v.Kind != VerdictReject || v.Reason != "filtered: f" {
		t.Fatalf("filter passed empty message at demux, or its reason does not name its node: %+v", v)
	}
	if f.Dropped != 1 {
		t.Fatalf("dropped = %d", f.Dropped)
	}
	full := msg.FromBytes(o, []byte("x"))
	if v := f.Demux(full); v.Kind != VerdictContinue || v.Next != "up" {
		t.Fatal("filter blocked valid message or wrong demux successor")
	}
	empty.Free()
	full.Free()
}

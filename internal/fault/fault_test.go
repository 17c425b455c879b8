package fault

import (
	"testing"

	"repro/internal/netsim"

	"repro/internal/sim"
)

func TestNilPointNeverFires(t *testing.T) {
	var p *Point
	for i := 0; i < 1000; i++ {
		if p.Fire() {
			t.Fatal("nil point fired")
		}
	}
	if p.Name() != "" {
		t.Fatal("nil point has a name")
	}
	var s *Set
	if s.Point("kmem.alloc") != nil {
		t.Fatal("nil set returned a point")
	}
	if s.Arm("kmem.alloc", Trigger{Nth: 1}) != nil {
		t.Fatal("nil set armed a point")
	}
}

func TestUnarmedPointNeverFires(t *testing.T) {
	s := NewSet(1)
	p := s.Point("iobuf.grant")
	for i := 0; i < 1000; i++ {
		if p.Fire() {
			t.Fatal("unarmed point fired")
		}
	}
	if p.Hits != 1000 || p.Fails != 0 {
		t.Fatalf("hits=%d fails=%d, want 1000/0", p.Hits, p.Fails)
	}
}

func TestNthTriggerFiresExactlyOnce(t *testing.T) {
	s := NewSet(1)
	p := s.Arm("thread.spawn", Trigger{Nth: 5})
	var fails []int
	for i := 1; i <= 100; i++ {
		if p.Fire() {
			fails = append(fails, i)
		}
	}
	if len(fails) != 1 || fails[0] != 5 {
		t.Fatalf("Nth=5 fired at %v, want exactly [5]", fails)
	}
}

func TestProbabilityTriggerIsSeedDeterministic(t *testing.T) {
	run := func(seed uint64) []int {
		s := NewSet(seed)
		p := s.Arm("kmem.alloc", Trigger{P: 0.1})
		var fails []int
		for i := 0; i < 2000; i++ {
			if p.Fire() {
				fails = append(fails, i)
			}
		}
		return fails
	}
	a, b := run(7), run(7)
	if len(a) == 0 {
		t.Fatal("p=0.1 never fired in 2000 hits")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed diverged: %d vs %d fails", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at fail %d: hit %d vs %d", i, a[i], b[i])
		}
	}
	// Rough sanity on the rate: 0.1 of 2000 = 200 expected.
	if len(a) < 120 || len(a) > 280 {
		t.Fatalf("p=0.1 fired %d/2000 times, far from expected 200", len(a))
	}
	if c := run(8); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical fail sequences")
		}
	}
}

func TestSharedGeneratorDecouplesFromUnarmedPoints(t *testing.T) {
	// Resolving extra (unarmed) points must not shift the armed point's
	// probability stream: unarmed Fire() takes no draw.
	run := func(extra bool) []int {
		s := NewSet(3)
		p := s.Arm("kmem.alloc", Trigger{P: 0.2})
		q := s.Point("iobuf.grant") // never armed
		var fails []int
		for i := 0; i < 500; i++ {
			if extra {
				q.Fire()
			}
			if p.Fire() {
				fails = append(fails, i)
			}
		}
		return fails
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("unarmed point shifted the stream: %d vs %d fails", len(a), len(b))
	}
}

func TestParseSpecGrammar(t *testing.T) {
	cases := []struct {
		in   string
		ok   bool
		want func(*Spec) bool
	}{
		{"", true, func(s *Spec) bool { return s == nil }},
		{"drop=0.1", true, func(s *Spec) bool { return s.Net.Drop == 0.1 && s.Seed == 1 }},
		{"seed=9,corrupt=0.02", true, func(s *Spec) bool { return s.Seed == 9 && s.Net.Corrupt == 0.02 }},
		{"dup=1", true, func(s *Spec) bool { return s.Net.Dup == 1 }},
		{"reorder=0.5", true, func(s *Spec) bool { return s.Net.Reorder == 0.5 && s.Net.ReorderDelay == 0 }},
		{"reorder=0.5:2ms", true, func(s *Spec) bool {
			return s.Net.Reorder == 0.5 && s.Net.ReorderDelay == 2*sim.CyclesPerMillisecond
		}},
		{"jitter=0.3:500us", true, func(s *Spec) bool {
			return s.Net.Jitter == 0.3 && s.Net.JitterMax == sim.CyclesPerMillisecond/2
		}},
		{"flap=10ms:1ms", true, func(s *Spec) bool {
			return s.Net.FlapPeriod == 10*sim.CyclesPerMillisecond && s.Net.FlapDown == 1*sim.CyclesPerMillisecond
		}},
		{"partition=1s:100ms", true, func(s *Spec) bool {
			return s.Net.PartitionAt == sim.CyclesPerSecond && s.Net.PartitionFor == 100*sim.CyclesPerMillisecond
		}},
		{"fp:kmem.alloc=n3", true, func(s *Spec) bool {
			return len(s.Points) == 1 && s.Points[0].Name == "kmem.alloc" && s.Points[0].Trig.Nth == 3
		}},
		{"fp:thread.spawn=p0.01", true, func(s *Spec) bool {
			return len(s.Points) == 1 && s.Points[0].Trig.P == 0.01
		}},
		{"watchdog", true, func(s *Spec) bool { return s.Watchdog }},
		{"watchdog=20ms", false, nil},
		{"shed=0.9", true, func(s *Spec) bool { return s.Shed == 0.9 }},
		{"drop=0.01, dup=0.02 ,seed=4", true, func(s *Spec) bool {
			return s.Net.Drop == 0.01 && s.Net.Dup == 0.02 && s.Seed == 4
		}},
		{"drop=1.5", false, nil},
		{"drop=-0.1", false, nil},
		{"shed=0", false, nil},
		{"shed=1.5", false, nil},
		{"flap=1ms:1ms", false, nil},
		{"flap=1ms", false, nil},
		{"jitter=0.1", false, nil},
		{"fp:x=q3", false, nil},
		{"fp:x=n0", false, nil},
		{"bogus=1", false, nil},
		{"seed=x", false, nil},
	}
	for _, c := range cases {
		s, err := ParseSpec(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseSpec(%q): err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && !c.want(s) {
			t.Errorf("ParseSpec(%q): wrong result %+v", c.in, s)
		}
	}
}

func TestSpecBuildersNilSafe(t *testing.T) {
	var s *Spec
	if s.NetEnabled() {
		t.Fatal("nil spec enables network faults")
	}
	if s.NewNetInjector(sim.New()) != nil {
		t.Fatal("nil spec built an injector")
	}
	if s.NewSet() != nil {
		t.Fatal("nil spec built a failpoint set")
	}
	s = &Spec{Seed: 1}
	if s.NewSet() != nil {
		t.Fatal("spec with no points built a failpoint set")
	}
	if s.NewNetInjector(sim.New()) != nil {
		t.Fatal("spec with no net faults built an injector")
	}
}

func TestWrapAttacherFastPath(t *testing.T) {
	eng := sim.New()
	hub := netsim.NewHub(eng, 100_000_000, 3000)
	var in *NetInjector
	if got := in.WrapAttacher(hub); got != netsim.Attacher(hub) {
		t.Fatalf("nil injector wrapped the attacher: %T", got)
	}
	in = NewNetInjector(eng, 1, NetConfig{})
	if got := in.WrapAttacher(hub); got != netsim.Attacher(hub) {
		t.Fatalf("no-fault injector wrapped the attacher: %T", got)
	}
	in = NewNetInjector(eng, 1, NetConfig{Drop: 0.5})
	if got := in.WrapAttacher(hub); got == netsim.Attacher(hub) {
		t.Fatal("faulting injector did not wrap the attacher")
	}
	// A wrapped NIC still lands on the underlying segment object.
	n := netsim.NewNIC("n0", netsim.MAC(1))
	in.WrapAttacher(hub).Attach(n)
	if n.Segment() == netsim.Segment(hub) {
		t.Fatal("attach did not interpose the injector segment")
	}
}

// Package fault is the deterministic fault-injection layer: seeded
// network chaos on netsim segments (drop, corrupt, duplicate, reorder,
// delay jitter, link flap, partition) and a failpoint API that makes
// kernel allocations, IOBuffer grants, and thread spawns fail at the
// Nth hit or with probability p.
//
// Everything is driven by the engine's virtual clock and dedicated
// sim.Rand generators, so a chaos run is byte-reproducible: the same
// seed produces the same faults at the same cycles, the same trace,
// and the same metrics export. The no-fault configuration costs one
// nil test per guarded site, so production paths pay ~nothing.
//
// Fault mixes are described by a compact spec string (see ParseSpec
// and ROBUSTNESS.md) so benchmarks and tests can name a chaos
// scenario in one flag: drop=0.01,dup=0.005,fp:thread.spawn=n3,seed=7.
// The same string names the server's defenses (Defense), which ride
// out the faults it injects.
package fault

import (
	"errors"

	"repro/internal/sim"
)

// ErrInjected is the sentinel wrapped by every injected failure, so
// call sites and tests can distinguish chaos from organic exhaustion
// with errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// KnownFailpoints lists every failpoint name compiled into the kernel,
// in sorted order. ParseSpec validates fp: entries against it: a
// typo'd site name would otherwise arm a point nothing ever consults,
// and the chaos run would silently test less than its spec claims.
var KnownFailpoints = []string{"iobuf.grant", "kmem.alloc", "thread.spawn"}

// KnownFailpoint reports whether name is a compiled-in failpoint.
func KnownFailpoint(name string) bool {
	for _, k := range KnownFailpoints {
		if k == name {
			return true
		}
	}
	return false
}

// Trigger arms a failpoint. Both conditions may be set; the point
// fails when either holds.
type Trigger struct {
	// Nth makes the point fail exactly once, on the Nth hit (1-based).
	// Zero disables the hit trigger.
	Nth uint64
	// P makes each hit fail independently with probability P, drawn
	// from the owning Set's seeded generator.
	P float64
}

// Point is one named failure site (e.g. "kmem.alloc", "iobuf.grant",
// "thread.spawn"). Call sites resolve their Point once at init and ask
// Fire() per operation; a nil Point (no fault Set configured) never
// fires, so the disabled fast path is a single pointer test.
type Point struct {
	name string
	trig Trigger
	rng  *sim.Rand

	// Hits counts calls that consulted the point; Fails counts the
	// calls it failed.
	Hits, Fails uint64
}

// Name returns the point's registered name ("" on nil).
func (p *Point) Name() string {
	if p == nil {
		return ""
	}
	return p.name
}

// Fire reports whether the current call should fail, advancing the
// point's hit count. Nil-safe: a nil point never fires.
func (p *Point) Fire() bool {
	if p == nil {
		return false
	}
	p.Hits++
	if p.trig.Nth != 0 && p.Hits == p.trig.Nth {
		p.Fails++
		return true
	}
	if p.trig.P > 0 && p.rng.Float64() < p.trig.P {
		p.Fails++
		return true
	}
	return false
}

// Set is a collection of failpoints sharing one seeded generator. A
// Set belongs to one kernel instance; parallel sweeps each build their
// own, so probability draws stay deterministic per run.
type Set struct {
	rng    *sim.Rand
	points map[string]*Point
}

// NewSet returns an empty failpoint set seeded with seed.
func NewSet(seed uint64) *Set {
	return &Set{rng: sim.NewRand(seed), points: make(map[string]*Point)}
}

// Point returns the named failpoint, creating an unarmed one on first
// use. Nil-safe: a nil Set returns a nil Point, which never fires.
func (s *Set) Point(name string) *Point {
	if s == nil {
		return nil
	}
	p, ok := s.points[name]
	if !ok {
		p = &Point{name: name, rng: s.rng}
		s.points[name] = p
	}
	return p
}

// Arm installs (or replaces) the trigger on the named point and
// returns it. Nil-safe no-op on a nil Set.
func (s *Set) Arm(name string, t Trigger) *Point {
	p := s.Point(name)
	if p != nil {
		p.trig = t
	}
	return p
}

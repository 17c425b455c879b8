// Package domain implements Escort's protection domains (§2.3). The
// paper uses hardware-enforced domains in a single 64-bit address space
// on the Alpha; here each domain is a simulated entity: the kernel
// assigns modules to domains at configuration time, inter-domain calls go
// through a crossing gate that charges the trap/switch cost and flushes a
// simulated TLB, and memory permissions (IOBuffer mappings) are enforced
// by explicit checks standing in for the MMU.
package domain

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
)

// ID identifies a protection domain. The privileged kernel domain is
// always ID 0.
type ID uint32

// KernelID is the privileged domain's ID.
const KernelID ID = 0

// Domain is a protection domain. Its first element is the Owner
// structure, exactly as in the paper's protection-domain record.
type Domain struct {
	Owner core.Owner

	id         ID
	privileged bool
	heap       *mem.Heap
	destroyed  bool

	// onDestroy callbacks tear down dependents: every path crossing this
	// domain must die with it (§2.4: paths can access module state in
	// each domain they cross, and that state vanishes with the domain).
	onDestroy []func()
}

// ID returns the domain identifier.
func (d *Domain) ID() ID { return d.id }

// Privileged reports whether this is the kernel domain.
func (d *Domain) Privileged() bool { return d.privileged }

// Heap returns the domain's sub-page allocator.
func (d *Domain) Heap() *mem.Heap { return d.heap }

// Name returns the owner name.
func (d *Domain) Name() string { return d.Owner.Name }

// AddDestroyHook registers fn to run when the domain is destroyed,
// before its owner releases anything. The path manager registers one
// per domain its paths cross, so a destroyed domain takes down exactly
// its live paths.
func (d *Domain) AddDestroyHook(fn func()) {
	d.onDestroy = append(d.onDestroy, fn)
}

// Registry tracks all domains in a configuration.
type Registry struct {
	kalloc  *mem.Allocator
	ledger  *core.Ledger
	domains []*Domain
	byName  map[string]*Domain
}

// NewRegistry creates a registry and the privileged kernel domain.
func NewRegistry(kalloc *mem.Allocator, ledger *core.Ledger) *Registry {
	r := &Registry{kalloc: kalloc, ledger: ledger, byName: make(map[string]*Domain)}
	r.create("kernel", true)
	return r
}

// Create adds an unprivileged domain with the given name.
func (r *Registry) Create(name string) *Domain {
	return r.create(name, false)
}

func (r *Registry) create(name string, privileged bool) *Domain {
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("domain: duplicate domain %q", name))
	}
	d := &Domain{
		Owner:      core.Owner{Name: "PD:" + name, Type: core.DomainOwner},
		id:         ID(len(r.domains)),
		privileged: privileged,
	}
	d.heap = mem.NewHeap(&d.Owner, r.kalloc)
	r.domains = append(r.domains, d)
	r.byName[name] = d
	if r.ledger != nil {
		r.ledger.Register(&d.Owner)
	}
	return d
}

// Kernel returns the privileged domain.
func (r *Registry) Kernel() *Domain { return r.domains[0] }

// Get returns a domain by ID.
func (r *Registry) Get(id ID) *Domain {
	if int(id) >= len(r.domains) {
		panic(fmt.Sprintf("domain: unknown domain id %d", id))
	}
	return r.domains[id]
}

// ByName returns a domain by configuration name.
func (r *Registry) ByName(name string) (*Domain, bool) {
	d, ok := r.byName[name]
	return d, ok
}

// All returns every domain in creation order.
func (r *Registry) All() []*Domain { return r.domains }

// Destroy tears a domain down: dependent paths die first (via hooks),
// the owner's tracked objects are released, and the heap's pages return
// to the kernel. Destroying the kernel domain panics.
func (r *Registry) Destroy(d *Domain) {
	if d.privileged {
		panic("domain: cannot destroy the privileged domain")
	}
	if d.destroyed {
		return
	}
	d.destroyed = true
	// Run hooks in registration order (deterministic teardown).
	for _, fn := range d.onDestroy {
		fn()
	}
	d.onDestroy = nil
	d.Owner.ReleaseAll(true)
	d.heap.Destroy()
	d.Owner.MarkDead()
}

// TLB models the translation lookaside buffer of the simulated CPU. The
// paper's OSF1 PAL bug forces a full invalidation at every protection
// domain crossing; the observable consequence (Figure 9's larger
// Accounting_PD slowdown under SYN flood) is that work touching a domain
// right after a flush pays a reload penalty. Warmth is tracked per
// domain: the first touch after a flush is cold.
type TLB struct {
	warm    map[ID]bool
	flushes uint64
	misses  uint64
}

// NewTLB returns a warm-empty TLB.
func NewTLB() *TLB {
	return &TLB{warm: make(map[ID]bool)}
}

// Flush invalidates all mappings (charged by the crossing gate).
func (t *TLB) Flush() {
	t.flushes++
	clear(t.warm)
}

// Touch records execution in a domain and reports whether its mappings
// were cold (the caller charges the miss penalty if so).
func (t *TLB) Touch(id ID) (cold bool) {
	if t.warm[id] {
		return false
	}
	t.warm[id] = true
	t.misses++
	return true
}

// Stats returns flush and miss counts (for tests and ablations).
func (t *TLB) Stats() (flushes, misses uint64) { return t.flushes, t.misses }

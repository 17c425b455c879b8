// Package iobuf implements Escort's IOBuffers (§3.3): page-multiple
// buffers used to pass blocks of data between protection domains without
// copying. They descend from fbufs but with stricter mapping rules and a
// kernel reference-counting scheme:
//
//   - A buffer allocated for a protection domain is mapped read/write in
//     that domain only.
//   - A buffer allocated for a path is mapped read/write in the current
//     domain and read-only in the other domains along the path, up to and
//     including an optional termination domain.
//   - A buffer can be associated with a second owner (a web cache being
//     the canonical user); the second owner is fully charged — the paper
//     accepts that more resources are charged than used.
//   - Association locks the buffer: all write permission is revoked so
//     the contents can be validated once and trusted.
//   - Unlocking decrements the reference count; at zero the buffer is
//     freed or parked in a cache, and a later allocation with the same
//     mapping set reuses it without cleaning.
//
// The MMU is simulated: ReadAt/WriteAt check the mapping table and fail
// the way a protection fault would.
package iobuf

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Perm is a simulated mapping permission.
type Perm int

// Mapping permissions.
const (
	PermNone Perm = iota
	PermRO
	PermRW
)

//escort:coldpath diagnostic stringer; the Sprintf fallback formats only invalid values
func (p Perm) String() string {
	switch p {
	case PermNone:
		return "none"
	case PermRO:
		return "ro"
	case PermRW:
		return "rw"
	default:
		return fmt.Sprintf("Perm(%d)", int(p))
	}
}

// Errors returned by buffer operations.
var (
	ErrNoAccess  = errors.New("iobuf: protection fault")
	ErrFrozen    = errors.New("iobuf: buffer is locked (write permission revoked)")
	ErrFreed     = errors.New("iobuf: buffer already freed")
	ErrExhausted = errors.New("iobuf: page pool exhausted")
)

// MapSpec describes how a buffer is mapped when allocated or associated.
type MapSpec struct {
	// Current is the allocating domain: mapped read/write.
	Current domain.ID
	// PathDomains are the other domains along the owning path, in flow
	// order: mapped read-only. Empty for domain-owned buffers.
	PathDomains []domain.ID
	// Termination, when non-zero, truncates the read-only mappings after
	// that domain — the paper's termination-domain mechanism for paths
	// spanning multiple security levels.
	Termination domain.ID
}

// Buffer is an IOBuffer. The first long word of a real Escort IOBuffer
// holds the ID of the domain allowed to write; here that is the writer
// field, cleared when the buffer is frozen by a lock.
type Buffer struct {
	mgr      *Manager
	pages    int
	blk      *mem.Block
	data     []byte
	writer   domain.ID // domain with write permission
	frozen   bool      // write permission revoked by a lock
	refcnt   int
	mappings map[domain.ID]Perm
	freed    bool
}

// Hold is an owner's reference to a buffer: the object tracked on the
// owner's iobufferlock list (Figure 4). Alloc and Associate create
// holds; releasing the last hold frees or caches the buffer.
type Hold struct {
	buf      *Buffer
	owner    *core.Owner
	node     lib.Node
	released bool
}

// Buffer returns the held buffer.
func (h *Hold) Buffer() *Buffer { return h.buf }

// Manager allocates and caches IOBuffers. Physical pages are owned by
// the kernel (which is "ultimately responsible" for them); each hold
// charges its owner's page counter in full.
type Manager struct {
	k      *kernel.Kernel
	cache  []*Buffer
	tracer *obs.Tracer // resolved once from the kernel; nil when disabled

	failGrant *fault.Point // "iobuf.grant" failpoint, resolved once

	// scratch backs the per-allocation cache probe (specDomains) so the
	// hot path stays allocation-free after warmup.
	scratch []domain.ID

	hits, misses uint64
}

// NewManager returns an IOBuffer manager bound to the kernel.
//
//escort:coldpath constructor, once per kernel
func NewManager(k *kernel.Kernel) *Manager {
	return &Manager{k: k, tracer: k.Tracer(), failGrant: k.FaultSet().Point("iobuf.grant")}
}

func (m *Manager) charge(ctx *kernel.Ctx, owner *core.Owner, c sim.Cycles) {
	if ctx != nil {
		ctx.Use(c)
	} else {
		m.k.Burn(owner, c)
	}
}

// Alloc allocates a buffer of npages pages for owner with the given
// mapping. ctx may be nil in interrupt context (costs are then charged
// directly to owner). The returned hold is the owner's reference.
func (m *Manager) Alloc(ctx *kernel.Ctx, owner *core.Owner, npages int, spec MapSpec) (*Hold, error) {
	if npages <= 0 {
		panic("iobuf: non-positive page count")
	}
	model := m.k.Model()
	m.charge(ctx, owner, model.IOBufAlloc+m.k.AccountingTax())

	// The grant failpoint fires before any kmem/page charge lands, so
	// a failed grant needs no refunds; it wraps ErrExhausted so callers
	// take their existing out-of-memory path.
	if m.failGrant.Fire() {
		if tr := m.tracer; tr != nil {
			tr.Fault("failpoint", owner.Name, "iobuf.grant", m.k.Engine().Now())
		}
		m.k.FaultCounters().Inc(owner.Name)
		return nil, fmt.Errorf("%w: %w", ErrExhausted, fault.ErrInjected)
	}

	b := m.fromCache(npages, spec)
	hit := b != nil
	if b == nil {
		m.misses++
		blk, err := m.k.Pages().Alloc(m.k.KernelOwner(), npages)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrExhausted, err)
		}
		b = &Buffer{ //escort:coldpath cache miss: fresh buffer construction, amortized by the parked-buffer cache
			mgr:      m,
			pages:    npages,
			data:     make([]byte, npages*mem.PageSize), //escort:coldpath cache miss, as above
			mappings: make(map[domain.ID]Perm),
			blk:      blk,
		}
	} else {
		m.hits++
	}
	b.applySpec(spec)
	m.charge(ctx, owner, sim.Cycles(len(b.mappings))*model.IOBufMapPerDomain)
	if tr := m.tracer; tr != nil {
		tr.IOBufAlloc(owner.Name, npages, hit, m.k.Engine().Now())
	}
	return b.hold(owner), nil
}

func (b *Buffer) applySpec(spec MapSpec) {
	b.writer = spec.Current
	b.frozen = false
	b.mappings[spec.Current] = PermRW
	for _, d := range spec.PathDomains {
		if d == spec.Current {
			continue
		}
		if _, exists := b.mappings[d]; !exists {
			b.mappings[d] = PermRO
		}
		if spec.Termination != 0 && d == spec.Termination {
			break
		}
	}
}

func (b *Buffer) hold(owner *core.Owner) *Hold {
	h := &Hold{buf: b, owner: owner} //escort:coldpath per-hold handle: caller-owned token carrying the charge, freed with the hold
	h.node.Value = h
	b.refcnt++
	owner.ChargePages(uint64(b.pages))
	owner.Track(core.TrackIOBufferLocks, &h.node)
	return h
}

// Associate maps a pre-existing buffer for a second owner (the web-cache
// pattern): the buffer is locked for the second owner, extra mappings
// are installed per spec, and the second owner is fully charged.
func (m *Manager) Associate(ctx *kernel.Ctx, b *Buffer, owner *core.Owner, spec MapSpec) (*Hold, error) {
	if b.freed {
		return nil, ErrFreed
	}
	model := m.k.Model()
	m.charge(ctx, owner, model.IOBufLock+model.IOBufAlloc/2+m.k.AccountingTax())
	// Extra read-only mappings along the new path; the buffer stays
	// frozen (association includes locking).
	for _, d := range spec.PathDomains {
		if _, exists := b.mappings[d]; !exists {
			b.mappings[d] = PermRO
		}
		if spec.Termination != 0 && d == spec.Termination {
			break
		}
	}
	if _, exists := b.mappings[spec.Current]; !exists {
		b.mappings[spec.Current] = PermRO
	}
	b.frozen = true
	if b.mappings[b.writer] == PermRW {
		b.mappings[b.writer] = PermRO
	}
	m.charge(ctx, owner, sim.Cycles(len(b.mappings))*model.IOBufMapPerDomain)
	return b.hold(owner), nil
}

// Unlock releases a hold. When the last hold goes the buffer is parked
// in the manager's cache (or freed if the cache is full). Idempotent per
// hold; unlocking twice panics, as the kernel would fault.
func (m *Manager) Unlock(ctx *kernel.Ctx, h *Hold) {
	if h.released {
		panic("iobuf: double unlock")
	}
	m.charge(ctx, h.owner, m.k.Model().IOBufLock)
	h.owner.Untrack(core.TrackIOBufferLocks, &h.node)
	h.release()
}

// ReleaseOwned implements core.Tracked: owner teardown drops the hold.
func (h *Hold) ReleaseOwned(kill bool) {
	if h.released {
		return
	}
	h.release()
}

func (h *Hold) release() {
	h.released = true
	if !h.owner.Dead() {
		h.owner.RefundPages(uint64(h.buf.pages))
	} else {
		// Owner died before refund: counters were zeroed by page release
		// order; RefundPages on the hold's share may underflow, so adjust
		// defensively.
		if h.owner.Counters.Pages >= uint64(h.buf.pages) {
			h.owner.RefundPages(uint64(h.buf.pages))
		}
	}
	b := h.buf
	b.refcnt--
	if b.refcnt == 0 {
		b.mgr.park(b)
	}
}

// cacheLimit bounds the buffer cache.
const cacheLimit = 64

func (m *Manager) park(b *Buffer) {
	// Drop all write mappings; contents stay for reuse.
	for d, p := range b.mappings {
		if p == PermRW {
			b.mappings[d] = PermRO
		}
	}
	b.frozen = false
	if len(m.cache) < cacheLimit {
		m.cache = append(m.cache, b) //escort:coldpath bounded: the guard above caps the cache at cacheLimit
		return
	}
	m.reclaim(b)
}

func (m *Manager) reclaim(b *Buffer) {
	b.freed = true
	b.blk.Free()
	b.data = nil
}

// fromCache finds a parked buffer whose read mappings cover the wanted
// domains with the right size — the paper's no-cleaning reuse rule.
func (m *Manager) fromCache(npages int, spec MapSpec) *Buffer {
	want := m.specDomains(spec)
	for i, b := range m.cache {
		if b.pages != npages {
			continue
		}
		if mappingsMatch(b.mappings, want) {
			m.cache = append(m.cache[:i], m.cache[i+1:]...)
			return b
		}
	}
	return nil
}

// specDomains returns the wanted mapping set for spec, sorted. The
// result aliases m.scratch: the probe runs on every allocation, and
// reusing the scratch slice (with an insertion sort instead of the
// closure-taking sort.Slice) keeps it off the heap entirely.
func (m *Manager) specDomains(spec MapSpec) []domain.ID {
	ds := append(m.scratch[:0], spec.Current)
	for _, d := range spec.PathDomains {
		if d != spec.Current {
			ds = append(ds, d)
		}
		if spec.Termination != 0 && d == spec.Termination {
			break
		}
	}
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	m.scratch = ds
	return ds
}

func mappingsMatch(m map[domain.ID]Perm, want []domain.ID) bool {
	if len(m) != len(want) {
		return false
	}
	for _, d := range want {
		if _, ok := m[d]; !ok {
			return false
		}
	}
	return true
}

// WriteAt writes into the buffer from the given domain, enforcing the
// simulated MMU: the domain must hold the read/write mapping and the
// buffer must not be frozen.
func (b *Buffer) WriteAt(d domain.ID, off int, p []byte) error {
	if b.freed {
		return ErrFreed
	}
	if b.frozen {
		return fmt.Errorf("%w (domain %d)", ErrFrozen, d)
	}
	if b.mappings[d] != PermRW || b.writer != d {
		return fmt.Errorf("%w: write from domain %d", ErrNoAccess, d)
	}
	if off < 0 || off+len(p) > len(b.data) {
		return fmt.Errorf("iobuf: write [%d,%d) outside buffer of %d bytes", off, off+len(p), len(b.data))
	}
	copy(b.data[off:], p)
	return nil
}

// ReadAt reads from the buffer in the given domain; any mapping suffices.
func (b *Buffer) ReadAt(d domain.ID, off int, p []byte) error {
	if b.freed {
		return ErrFreed
	}
	if b.mappings[d] == PermNone {
		return fmt.Errorf("%w: read from domain %d", ErrNoAccess, d)
	}
	if off < 0 || off+len(p) > len(b.data) {
		return fmt.Errorf("iobuf: read [%d,%d) outside buffer of %d bytes", off, off+len(p), len(b.data))
	}
	copy(p, b.data[off:])
	return nil
}

// Bytes exposes the raw contents to privileged (kernel) code, tests,
// and a reader whose mapping ReadAt has just checked (the FS copies a
// cached file into its reply this way, once).
func (b *Buffer) Bytes() []byte { return b.data }

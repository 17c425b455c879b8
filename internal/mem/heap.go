package mem

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
)

// ErrHeapExhausted is returned when the heap cannot grow (page pool empty
// or the domain's page budget is exceeded).
var ErrHeapExhausted = errors.New("mem: heap exhausted")

// Heap is a protection domain's sub-page allocator. It grabs pages from
// the kernel allocator (charged to the domain), carves them into objects
// with a first-fit free list, and supports the paper's charge-transfer
// rule: an object allocated on behalf of a path is charged to the path's
// kmem counter and deducted from the domain's, so accounting stays exact
// while avoiding a page-per-path-per-domain blowup.
type Heap struct {
	domain *core.Owner
	kalloc *Allocator

	blocks []*Block // pages backing the heap, freed on Destroy

	// free list of (start, size) byte ranges over a virtual address space:
	// each grabbed block extends the space by its byte size. Kept sorted by
	// start; adjacent ranges coalesce.
	free []span

	spaceEnd int // total virtual bytes backed by pages

	// byOwner indexes live objects charged to each foreign owner so a
	// path's module destructor — or the kill path — can release everything
	// the path holds in this domain.
	byOwner map[*core.Owner]map[*Obj]struct{}

	allocated int // live object bytes
	destroyed bool
}

type span struct {
	start, size int
}

// Obj is a live heap allocation.
type Obj struct {
	owner *core.Owner // who the bytes are charged to
	start int
	size  int
}

// NewHeap returns an empty heap for the given domain owner.
func NewHeap(domain *core.Owner, kalloc *Allocator) *Heap {
	return &Heap{
		domain:  domain,
		kalloc:  kalloc,
		byOwner: make(map[*core.Owner]map[*Obj]struct{}),
	}
}

// Allocated returns the live object byte count.
func (h *Heap) Allocated() int { return h.allocated }

// Alloc carves size bytes, charged to chargeTo. When chargeTo is the
// domain itself the bytes stay on the domain's balance; otherwise the
// charge transfers: chargeTo gains kmem, the domain refunds the same.
func (h *Heap) Alloc(size int, chargeTo *core.Owner) (*Obj, error) {
	if h.destroyed {
		panic("mem: alloc on destroyed heap")
	}
	if size <= 0 {
		panic("mem: non-positive heap allocation")
	}
	if chargeTo == nil {
		chargeTo = h.domain
	}
	start, ok := h.carve(size)
	if !ok {
		if err := h.grow(size); err != nil {
			return nil, err
		}
		start, ok = h.carve(size)
		if !ok {
			return nil, fmt.Errorf("%w: fragmentation prevented %d-byte allocation", ErrHeapExhausted, size)
		}
	}
	o := &Obj{owner: chargeTo, start: start, size: size}
	h.allocated += size
	// The domain's kmem was charged for the whole backing block at grow
	// time, so domain-owned objects change nothing; a foreign (path) owner
	// takes the bytes over from the domain — the paper's charge transfer.
	if chargeTo != h.domain {
		chargeTo.ChargeKmem(uint64(size))
		h.domain.RefundKmem(uint64(size))
		set := h.byOwner[chargeTo]
		if set == nil {
			set = make(map[*Obj]struct{})
			h.byOwner[chargeTo] = set
		}
		set[o] = struct{}{}
	}
	return o, nil
}

func (h *Heap) release(o *Obj) {
	h.allocated -= o.size
	if o.owner != h.domain {
		o.owner.RefundKmem(uint64(o.size))
		if !h.domain.Dead() {
			h.domain.ChargeKmem(uint64(o.size)) //escort:held charge transfer back: the heap re-assumes bytes a dying owner refunded; refunded with the backing block in Destroy
		}
		if set := h.byOwner[o.owner]; set != nil {
			delete(set, o)
			if len(set) == 0 {
				delete(h.byOwner, o.owner)
			}
		}
	}
	h.insertFree(span{o.start, o.size})
}

// ReleaseFor frees every live object charged to owner, returning the byte
// total released. This implements the module destructor's job for path
// teardown, and the kernel's reclamation sweep for pathKill.
func (h *Heap) ReleaseFor(owner *core.Owner) int {
	// Release in address order: release() mutates the free list (and the
	// byOwner set itself), so iterating the set directly would make the
	// coalescing order — and the resulting span layout — depend on map
	// iteration order.
	set := h.byOwner[owner]
	if len(set) == 0 {
		return 0
	}
	objs := make([]*Obj, 0, len(set))
	for o := range set {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].start < objs[j].start })
	total := 0
	for _, o := range objs {
		total += o.size
		h.release(o)
	}
	return total
}

// OwedBy returns the live bytes charged to owner in this heap.
func (h *Heap) OwedBy(owner *core.Owner) int {
	total := 0
	for o := range h.byOwner[owner] {
		total += o.size
	}
	return total
}

// Destroy frees the heap's backing pages. Objects charged to foreign
// owners must have been released first (destroying a domain destroys all
// paths crossing it, which releases their objects); the heap panics
// otherwise because the charge bookkeeping would be left dangling.
func (h *Heap) Destroy() {
	if h.destroyed {
		return
	}
	if len(h.byOwner) != 0 {
		panic("mem: heap destroyed with live foreign-charged objects")
	}
	h.destroyed = true
	// The domain's kmem balance covers the full backing block size (its
	// own live objects included), so refund it all here.
	if !h.domain.Dead() {
		for _, b := range h.blocks {
			if !b.freed {
				h.domain.RefundKmem(uint64(b.Bytes()))
			}
		}
	}
	h.allocated = 0
	for _, b := range h.blocks {
		if !b.freed {
			b.Free()
		}
	}
	h.blocks = nil
	h.free = nil
}

func (h *Heap) grow(atLeast int) error {
	pages := (atLeast + PageSize - 1) / PageSize
	if pages < 1 {
		pages = 1
	}
	b, err := h.kalloc.Alloc(h.domain, pages)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrHeapExhausted, err)
	}
	h.blocks = append(h.blocks, b)
	h.insertFree(span{h.spaceEnd, b.Bytes()})
	h.spaceEnd += b.Bytes()
	// The domain's kmem balance holds the heap's free bytes, so the sum of
	// every owner's kmem equals the bytes backed by domain pages.
	h.domain.ChargeKmem(uint64(b.Bytes())) //escort:held heap backing bytes; refunded in Destroy, rebalanced per-object in alloc/release
	return nil
}

// carve finds a first-fit free span and cuts size bytes from its front.
func (h *Heap) carve(size int) (start int, ok bool) {
	for i, s := range h.free {
		if s.size >= size {
			start = s.start
			if s.size == size {
				h.free = append(h.free[:i], h.free[i+1:]...)
			} else {
				h.free[i] = span{s.start + size, s.size - size}
			}
			return start, true
		}
	}
	return 0, false
}

// insertFree adds a span back, keeping the list sorted and coalescing
// adjacent ranges.
func (h *Heap) insertFree(s span) {
	// Binary search for insertion point.
	lo, hi := 0, len(h.free)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.free[mid].start < s.start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.free = append(h.free, span{})
	copy(h.free[lo+1:], h.free[lo:])
	h.free[lo] = s
	// Coalesce with successor, then predecessor.
	if lo+1 < len(h.free) && h.free[lo].start+h.free[lo].size == h.free[lo+1].start {
		h.free[lo].size += h.free[lo+1].size
		h.free = append(h.free[:lo+1], h.free[lo+2:]...)
	}
	if lo > 0 && h.free[lo-1].start+h.free[lo-1].size == h.free[lo].start {
		h.free[lo-1].size += h.free[lo].size
		h.free = append(h.free[:lo], h.free[lo+1:]...)
	}
}

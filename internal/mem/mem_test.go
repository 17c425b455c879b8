package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestPageAllocChargeAndTrack(t *testing.T) {
	a := NewAllocator(16)
	owner := core.NewOwner("d1", core.DomainOwner)
	b, err := a.Alloc(owner, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.FreePages() != 12 || a.InUse() != 4 {
		t.Fatalf("free=%d inuse=%d", a.FreePages(), a.InUse())
	}
	if owner.Counters.Pages != 4 {
		t.Fatalf("owner pages = %d", owner.Counters.Pages)
	}
	if owner.TrackedCount(core.TrackPages) != 1 {
		t.Fatal("block not tracked")
	}
	if b.Bytes() != 4*PageSize {
		t.Fatalf("bytes = %d", b.Bytes())
	}
	b.Free()
	if a.FreePages() != 16 || owner.Counters.Pages != 0 || owner.TrackedCount(core.TrackPages) != 0 {
		t.Fatal("free did not fully unwind")
	}
}

func TestPageExhaustion(t *testing.T) {
	a := NewAllocator(2)
	owner := core.NewOwner("d", core.DomainOwner)
	if _, err := a.Alloc(owner, 3); !errors.Is(err, ErrOutOfPages) {
		t.Fatalf("err = %v, want ErrOutOfPages", err)
	}
	b, _ := a.Alloc(owner, 2)
	if _, err := a.Alloc(owner, 1); !errors.Is(err, ErrOutOfPages) {
		t.Fatalf("err = %v, want ErrOutOfPages", err)
	}
	b.Free()
	if _, err := a.Alloc(owner, 1); err != nil {
		t.Fatalf("alloc after free failed: %v", err)
	}
}

func TestPageDoubleFreePanics(t *testing.T) {
	a := NewAllocator(2)
	owner := core.NewOwner("d", core.DomainOwner)
	b, _ := a.Alloc(owner, 1)
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	b.Free()
}

func TestOwnerTeardownReclaimsPages(t *testing.T) {
	a := NewAllocator(10)
	owner := core.NewOwner("p", core.PathOwner)
	for i := 0; i < 3; i++ {
		if _, err := a.Alloc(owner, 2); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreePages() != 4 {
		t.Fatalf("free = %d", a.FreePages())
	}
	owner.ReleaseAll(true)
	if a.FreePages() != 10 {
		t.Fatalf("teardown reclaimed to %d free, want 10", a.FreePages())
	}
	if owner.Counters.Pages != 0 {
		t.Fatalf("owner still charged %d pages", owner.Counters.Pages)
	}
}

func TestHeapAllocFreeRoundTrip(t *testing.T) {
	a := NewAllocator(8)
	dom := core.NewOwner("d", core.DomainOwner)
	path := core.NewOwner("p", core.PathOwner)
	h := NewHeap(dom, a)
	if _, err := h.Alloc(100, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(200, dom); err != nil {
		t.Fatal(err)
	}
	if h.Allocated() != 300 {
		t.Fatalf("allocated = %d", h.Allocated())
	}
	// Domain kmem = backing bytes (free bytes stay charged to domain).
	if dom.Counters.Kmem != uint64(h.spaceEnd) {
		t.Fatalf("domain kmem = %d, want %d", dom.Counters.Kmem, h.spaceEnd)
	}
	if _, err := h.Alloc(400, path); err != nil {
		t.Fatal(err)
	}
	h.ReleaseFor(path)
	if h.Allocated() != 300 {
		t.Fatalf("allocated after release = %d", h.Allocated())
	}
	// Destroy frees the domain's own live objects with the pages.
	h.Destroy()
	if a.FreePages() != 8 || dom.Counters.Kmem != 0 || dom.Counters.Pages != 0 {
		t.Fatalf("destroy did not unwind: free=%d kmem=%d pages=%d",
			a.FreePages(), dom.Counters.Kmem, dom.Counters.Pages)
	}
}

func TestHeapChargeTransferToPath(t *testing.T) {
	a := NewAllocator(8)
	dom := core.NewOwner("d", core.DomainOwner)
	path := core.NewOwner("p", core.PathOwner)
	h := NewHeap(dom, a)

	if _, err := h.Alloc(512, path); err != nil {
		t.Fatal(err)
	}
	if path.Counters.Kmem != 512 {
		t.Fatalf("path kmem = %d, want 512", path.Counters.Kmem)
	}
	// Conservation: domain kmem + path kmem == backed bytes.
	backed := uint64(h.spaceEnd)
	if dom.Counters.Kmem+path.Counters.Kmem != backed {
		t.Fatalf("kmem not conserved: %d + %d != %d", dom.Counters.Kmem, path.Counters.Kmem, backed)
	}
	if h.OwedBy(path) != 512 {
		t.Fatalf("OwedBy = %d", h.OwedBy(path))
	}
	h.ReleaseFor(path)
	if path.Counters.Kmem != 0 {
		t.Fatalf("path kmem after release = %d", path.Counters.Kmem)
	}
	if dom.Counters.Kmem != backed {
		t.Fatalf("charge did not transfer back: %d != %d", dom.Counters.Kmem, backed)
	}
}

func TestHeapReleaseFor(t *testing.T) {
	a := NewAllocator(8)
	dom := core.NewOwner("d", core.DomainOwner)
	p1 := core.NewOwner("p1", core.PathOwner)
	p2 := core.NewOwner("p2", core.PathOwner)
	h := NewHeap(dom, a)
	for i := 0; i < 5; i++ {
		if _, err := h.Alloc(64, p1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Alloc(128, p2); err != nil {
		t.Fatal(err)
	}
	if got := h.ReleaseFor(p1); got != 320 {
		t.Fatalf("ReleaseFor = %d, want 320", got)
	}
	if p1.Counters.Kmem != 0 {
		t.Fatalf("p1 kmem = %d", p1.Counters.Kmem)
	}
	if h.OwedBy(p2) != 128 {
		t.Fatal("ReleaseFor touched the wrong owner's objects")
	}
	h.ReleaseFor(p2)
	h.Destroy()
}

func TestHeapGrowsAcrossPages(t *testing.T) {
	a := NewAllocator(64)
	dom := core.NewOwner("d", core.DomainOwner)
	path := core.NewOwner("p", core.PathOwner)
	h := NewHeap(dom, a)
	for i := 0; i < 100; i++ {
		if _, err := h.Alloc(1000, path); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.blocks) < 2 || h.spaceEnd < 100*1000 {
		t.Fatalf("backing = %d bytes in %d blocks, too few", h.spaceEnd, len(h.blocks))
	}
	h.ReleaseFor(path)
	// The blocks back one contiguous space, so it all coalesces.
	if len(h.free) != 1 || h.free[0] != (span{0, h.spaceEnd}) {
		t.Fatalf("free list = %v, want one span of %d bytes", h.free, h.spaceEnd)
	}
	h.Destroy()
}

func TestHeapCoalescing(t *testing.T) {
	a := NewAllocator(8)
	dom := core.NewOwner("d", core.DomainOwner)
	p1 := core.NewOwner("p1", core.PathOwner)
	p2 := core.NewOwner("p2", core.PathOwner)
	p3 := core.NewOwner("p3", core.PathOwner)
	h := NewHeap(dom, a)
	h.Alloc(100, p1)
	h.Alloc(100, p2)
	h.Alloc(100, p3)
	// Free in an order that exercises both coalesce directions.
	h.ReleaseFor(p1)
	h.ReleaseFor(p3)
	spans := len(h.free)
	h.ReleaseFor(p2)
	if len(h.free) >= spans+1 {
		t.Fatalf("middle free did not coalesce: %d spans (was %d)", len(h.free), spans)
	}
	if len(h.free) != 1 {
		t.Fatalf("spans = %d, want 1 fully-coalesced span", len(h.free))
	}
	h.Destroy()
}

func TestHeapDestroyWithForeignObjectsPanics(t *testing.T) {
	a := NewAllocator(8)
	dom := core.NewOwner("d", core.DomainOwner)
	p := core.NewOwner("p", core.PathOwner)
	h := NewHeap(dom, a)
	if _, err := h.Alloc(64, p); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("destroy with live foreign objects did not panic")
		}
	}()
	h.Destroy()
}

func TestHeapExhaustionError(t *testing.T) {
	a := NewAllocator(1)
	dom := core.NewOwner("d", core.DomainOwner)
	h := NewHeap(dom, a)
	if _, err := h.Alloc(PageSize, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(1, nil); !errors.Is(err, ErrHeapExhausted) {
		t.Fatalf("err = %v, want ErrHeapExhausted", err)
	}
}

// TestHeapKmemConservationProperty: under random alloc/release traffic, the
// sum of all owners' kmem equals the heap's backed bytes — the paper's
// "account for virtually 100% of resources" invariant for memory.
func TestHeapKmemConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		a := NewAllocator(512)
		dom := core.NewOwner("d", core.DomainOwner)
		paths := []*core.Owner{
			core.NewOwner("p0", core.PathOwner),
			core.NewOwner("p1", core.PathOwner),
			core.NewOwner("p2", core.PathOwner),
		}
		h := NewHeap(dom, a)
		for _, op := range ops {
			who := paths[int(op)%len(paths)]
			if op%4 != 0 {
				size := int(op%2000) + 1
				if op%5 == 0 {
					who = dom
				}
				// A full pool is fine; the invariant must still hold.
				h.Alloc(size, who)
			} else {
				h.ReleaseFor(who)
			}
			backed := uint64(h.spaceEnd)
			sum := dom.Counters.Kmem
			for _, p := range paths {
				sum += p.Counters.Kmem
			}
			if sum != backed {
				return false
			}
			free := 0
			for _, s := range h.free {
				free += s.size
			}
			if free+h.Allocated() != int(backed) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocatorNeverOverCommits: random page traffic never drives the free
// count negative or above total.
func TestAllocatorNeverOverCommits(t *testing.T) {
	f := func(sizes []uint8) bool {
		a := NewAllocator(128)
		owner := core.NewOwner("o", core.DomainOwner)
		var blocks []*Block
		for _, s := range sizes {
			n := int(s%16) + 1
			b, err := a.Alloc(owner, n)
			if err != nil {
				if a.FreePages() >= n {
					return false // refused despite capacity
				}
				if len(blocks) > 0 {
					blocks[0].Free()
					blocks = blocks[1:]
				}
				continue
			}
			blocks = append(blocks, b)
			if a.FreePages() < 0 || a.InUse() > a.TotalPages() {
				return false
			}
		}
		for _, b := range blocks {
			b.Free()
		}
		return a.FreePages() == 128 && owner.Counters.Pages == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

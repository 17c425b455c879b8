// Package mem implements Escort's two-level memory system (§2.4): the
// kernel allocates memory at page granularity only, handing pages to
// owners (protection domains, or paths for IOBuffers); each protection
// domain then runs a heap that carves its pages into smaller objects and
// can charge those objects to paths crossing the domain, deducting the
// bytes from the domain's own balance. The domain remains ultimately
// responsible for returning pages to the kernel.
package mem

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/lib"
)

// PageSize is the simulated page size: 8 KB, the Alpha 21064's page size.
const PageSize = 8192

// ErrOutOfPages is returned when the physical page pool is exhausted.
var ErrOutOfPages = errors.New("mem: out of physical pages")

// Allocator is the kernel page allocator: a fixed pool of physical pages.
type Allocator struct {
	total int
	free  int
}

// NewAllocator returns an allocator managing totalPages physical pages.
func NewAllocator(totalPages int) *Allocator {
	if totalPages <= 0 {
		panic("mem: allocator needs a positive page count")
	}
	return &Allocator{total: totalPages, free: totalPages}
}

// FreePages returns the number of unallocated pages.
func (a *Allocator) FreePages() int { return a.free }

// TotalPages returns the pool size.
func (a *Allocator) TotalPages() int { return a.total }

// InUse returns allocated pages.
func (a *Allocator) InUse() int { return a.total - a.free }

// Block is a contiguous allocation of n pages charged to an owner. It is
// tracked on the owner's page list so owner destruction reclaims it.
type Block struct {
	alloc *Allocator
	owner *core.Owner
	n     int
	node  lib.Node
	freed bool
}

// Alloc allocates n pages charged to owner and tracks the block on the
// owner's page list.
func (a *Allocator) Alloc(owner *core.Owner, n int) (*Block, error) {
	if n <= 0 {
		panic("mem: non-positive page allocation")
	}
	if owner == nil {
		panic("mem: page allocation without owner")
	}
	if n > a.free {
		return nil, fmt.Errorf("%w: want %d, have %d", ErrOutOfPages, n, a.free)
	}
	a.free -= n
	b := &Block{alloc: a, owner: owner, n: n}
	b.node.Value = b
	owner.ChargePages(uint64(n))
	owner.Track(core.TrackPages, &b.node)
	return b, nil
}

// Bytes returns the block's size in bytes.
func (b *Block) Bytes() int { return b.n * PageSize }

// Free returns the pages to the kernel and refunds the owner. Double free
// panics — a silent double free would corrupt the pool invariant.
func (b *Block) Free() {
	if b.freed {
		panic("mem: double free of page block")
	}
	b.owner.Untrack(core.TrackPages, &b.node)
	b.release()
}

// ReleaseOwned implements core.Tracked: called during owner teardown, when
// the owner has already unlinked the tracking node.
func (b *Block) ReleaseOwned(kill bool) {
	if b.freed {
		return
	}
	b.release()
}

func (b *Block) release() {
	b.freed = true
	b.alloc.free += b.n
	b.owner.RefundPages(uint64(b.n))
}

package domain

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

func newRegistry() (*Registry, *mem.Allocator, *core.Ledger) {
	kalloc := mem.NewAllocator(256)
	var ledger core.Ledger
	return NewRegistry(kalloc, &ledger), kalloc, &ledger
}

func TestRegistryKernelDomain(t *testing.T) {
	r, _, ledger := newRegistry()
	k := r.Kernel()
	if !k.Privileged() || k.ID() != KernelID {
		t.Fatal("kernel domain not privileged with ID 0")
	}
	if len(r.domains) != 1 {
		t.Fatalf("count = %d", len(r.domains))
	}
	if len(ledger.Live()) != 1 {
		t.Fatal("kernel domain owner not registered in ledger")
	}
}

func TestCreateAndLookup(t *testing.T) {
	r, _, _ := newRegistry()
	d1 := r.Create("tcp")
	d2 := r.Create("ip")
	if d1.ID() == d2.ID() {
		t.Fatal("duplicate IDs")
	}
	if got, ok := r.ByName("tcp"); !ok || got != d1 {
		t.Fatal("ByName lookup failed")
	}
	if r.Get(d2.ID()) != d2 {
		t.Fatal("Get lookup failed")
	}
	if d1.Name() != "PD:tcp" {
		t.Fatalf("name = %q", d1.Name())
	}
	if len(r.All()) != 3 {
		t.Fatalf("All() = %d domains", len(r.All()))
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r, _, _ := newRegistry()
	r.Create("tcp")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	r.Create("tcp")
}

func TestUnknownIDPanics(t *testing.T) {
	r, _, _ := newRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("unknown ID did not panic")
		}
	}()
	r.Get(42)
}

func TestDestroyReclaimsHeapPages(t *testing.T) {
	r, kalloc, _ := newRegistry()
	d := r.Create("fs")
	if _, err := d.Heap().Alloc(10000, nil); err != nil {
		t.Fatal(err)
	}
	if kalloc.InUse() == 0 {
		t.Fatal("heap did not take pages")
	}
	r.Destroy(d)
	if kalloc.InUse() != 0 {
		t.Fatalf("pages leaked: %d in use", kalloc.InUse())
	}
	if !d.destroyed || !d.Owner.Dead() {
		t.Fatal("domain not marked destroyed")
	}
	r.Destroy(d) // idempotent
}

func TestDestroyRunsHooksFirst(t *testing.T) {
	r, _, _ := newRegistry()
	d := r.Create("ip")
	hookRanBeforeHeapGone := false
	if _, err := d.Heap().Alloc(100, nil); err != nil {
		t.Fatal(err)
	}
	d.AddDestroyHook(func() {
		// The heap must still be usable while dependents tear down.
		hookRanBeforeHeapGone = d.Heap().Allocated() > 0
	})
	r.Destroy(d)
	if !hookRanBeforeHeapGone {
		t.Fatal("destroy hook ran after heap teardown")
	}
}

func TestDestroyKernelPanics(t *testing.T) {
	r, _, _ := newRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("destroying kernel domain did not panic")
		}
	}()
	r.Destroy(r.Kernel())
}

func TestTLBWarmth(t *testing.T) {
	tlb := NewTLB()
	if !tlb.Touch(1) {
		t.Fatal("first touch must be cold")
	}
	if tlb.Touch(1) {
		t.Fatal("second touch must be warm")
	}
	if !tlb.Touch(2) {
		t.Fatal("other domain must start cold")
	}
	tlb.Flush()
	if !tlb.Touch(1) || !tlb.Touch(2) {
		t.Fatal("flush did not cool mappings")
	}
	flushes, misses := tlb.Stats()
	if flushes != 1 || misses != 4 {
		t.Fatalf("stats = %d flushes %d misses", flushes, misses)
	}
}

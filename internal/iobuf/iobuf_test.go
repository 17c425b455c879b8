package iobuf

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/domain"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

func newEnv(t *testing.T) (*kernel.Kernel, *Manager) {
	t.Helper()
	k := kernel.New(sim.New(), cost.Default(), kernel.Config{Accounting: true})
	t.Cleanup(k.Stop)
	return k, NewManager(k)
}

func TestAllocMappingRules(t *testing.T) {
	k, m := newEnv(t)
	dTCP := k.Domains().Create("tcp")
	dIP := k.Domains().Create("ip")
	dETH := k.Domains().Create("eth")
	path := k.NewOwner("p", core.PathOwner)

	h, err := m.Alloc(nil, path, 1, MapSpec{
		Current:     dTCP.ID(),
		PathDomains: []domain.ID{dIP.ID(), dETH.ID()},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := h.Buffer()
	if b.mappings[dTCP.ID()] != PermRW {
		t.Fatal("current domain not mapped rw")
	}
	if b.mappings[dIP.ID()] != PermRO || b.mappings[dETH.ID()] != PermRO {
		t.Fatal("path domains not mapped ro")
	}
	if b.mappings[domain.KernelID] != PermNone {
		t.Fatal("unrelated domain mapped")
	}
	if path.Counters.Pages != 1 {
		t.Fatalf("owner pages = %d", path.Counters.Pages)
	}
}

func TestTerminationDomainTruncatesMappings(t *testing.T) {
	k, m := newEnv(t)
	d1 := k.Domains().Create("a")
	d2 := k.Domains().Create("b")
	d3 := k.Domains().Create("c")
	path := k.NewOwner("p", core.PathOwner)
	h, err := m.Alloc(nil, path, 1, MapSpec{
		Current:     d1.ID(),
		PathDomains: []domain.ID{d2.ID(), d3.ID()},
		Termination: d2.ID(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Buffer().mappings[d2.ID()] != PermRO {
		t.Fatal("termination domain itself must be mapped")
	}
	if h.Buffer().mappings[d3.ID()] != PermNone {
		t.Fatal("domain beyond termination must not be mapped")
	}
}

func TestWritePermissionEnforced(t *testing.T) {
	k, m := newEnv(t)
	dTCP := k.Domains().Create("tcp")
	dIP := k.Domains().Create("ip")
	path := k.NewOwner("p", core.PathOwner)
	h, _ := m.Alloc(nil, path, 1, MapSpec{Current: dTCP.ID(), PathDomains: []domain.ID{dIP.ID()}})
	b := h.Buffer()

	if err := b.WriteAt(dTCP.ID(), 0, []byte("hello")); err != nil {
		t.Fatalf("writer domain write failed: %v", err)
	}
	if err := b.WriteAt(dIP.ID(), 0, []byte("evil")); !errors.Is(err, ErrNoAccess) {
		t.Fatalf("ro domain write err = %v, want ErrNoAccess", err)
	}
	got := make([]byte, 5)
	if err := b.ReadAt(dIP.ID(), 0, got); err != nil {
		t.Fatalf("ro read failed: %v", err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("read %q", got)
	}
	if err := b.ReadAt(domain.KernelID, 0, got); !errors.Is(err, ErrNoAccess) {
		t.Fatalf("unmapped read err = %v, want ErrNoAccess", err)
	}
}

func TestLockFreezesWrites(t *testing.T) {
	k, m := newEnv(t)
	dTCP := k.Domains().Create("tcp")
	path := k.NewOwner("p", core.PathOwner)
	other := k.NewOwner("q", core.PathOwner)
	h, _ := m.Alloc(nil, path, 1, MapSpec{Current: dTCP.ID()})
	b := h.Buffer()
	if err := b.WriteAt(dTCP.ID(), 0, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// A second hold, taken by association, locks the buffer.
	lk, err := m.Associate(nil, b, other, MapSpec{Current: dTCP.ID()})
	if err != nil {
		t.Fatal(err)
	}
	if !b.frozen {
		t.Fatal("lock did not freeze buffer")
	}
	if err := b.WriteAt(dTCP.ID(), 0, []byte("v2")); !errors.Is(err, ErrFrozen) {
		t.Fatalf("write after lock err = %v, want ErrFrozen", err)
	}
	if b.refcnt != 2 {
		t.Fatalf("refcnt = %d, want 2", b.refcnt)
	}
	if other.Counters.Pages != 1 {
		t.Fatal("locker not fully charged")
	}
	m.Unlock(nil, lk)
	if b.refcnt != 1 {
		t.Fatalf("refcnt after unlock = %d", b.refcnt)
	}
	if other.Counters.Pages != 0 {
		t.Fatal("locker charge not refunded")
	}
}

func TestLastUnlockParksInCache(t *testing.T) {
	k, m := newEnv(t)
	dTCP := k.Domains().Create("tcp")
	path := k.NewOwner("p", core.PathOwner)
	h, _ := m.Alloc(nil, path, 2, MapSpec{Current: dTCP.ID()})
	b := h.Buffer()
	copy(b.Bytes(), []byte("cached-content"))
	m.Unlock(nil, h)
	if len(m.cache) != 1 {
		t.Fatalf("cache len = %d", len(m.cache))
	}
	// Same mapping set and size: must reuse the same buffer, uncleaned.
	h2, _ := m.Alloc(nil, path, 2, MapSpec{Current: dTCP.ID()})
	if h2.Buffer() != b {
		t.Fatal("cache did not reuse matching buffer")
	}
	if !bytes.HasPrefix(h2.Buffer().Bytes(), []byte("cached-content")) {
		t.Fatal("reused buffer was cleaned")
	}
	if m.hits != 1 {
		t.Fatalf("hits = %d", m.hits)
	}
	// Writable again after reuse.
	if err := h2.Buffer().WriteAt(dTCP.ID(), 0, []byte("x")); err != nil {
		t.Fatalf("reused buffer not writable: %v", err)
	}
}

func TestCacheMissOnDifferentMappings(t *testing.T) {
	k, m := newEnv(t)
	d1 := k.Domains().Create("a")
	d2 := k.Domains().Create("b")
	path := k.NewOwner("p", core.PathOwner)
	h, _ := m.Alloc(nil, path, 1, MapSpec{Current: d1.ID()})
	m.Unlock(nil, h)
	h2, _ := m.Alloc(nil, path, 1, MapSpec{Current: d2.ID()})
	if h2.Buffer() == h.Buffer() {
		t.Fatal("cache reused buffer with mismatched mappings")
	}
	if m.misses != 2 {
		t.Fatalf("misses = %d, want 2", m.misses)
	}
}

func TestAssociateSecondOwnerFullyCharged(t *testing.T) {
	k, m := newEnv(t)
	dHTTP := k.Domains().Create("http")
	dTCP := k.Domains().Create("tcp")
	cacheOwner := k.NewOwner("webcache", core.DomainOwner)
	pathOwner := k.NewOwner("p", core.PathOwner)

	h, _ := m.Alloc(nil, cacheOwner, 2, MapSpec{Current: dHTTP.ID()})
	b := h.Buffer()
	if err := b.WriteAt(dHTTP.ID(), 0, []byte("page")); err != nil {
		t.Fatal(err)
	}
	ah, err := m.Associate(nil, b, pathOwner, MapSpec{
		Current:     dHTTP.ID(),
		PathDomains: []domain.ID{dTCP.ID()},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both owners fully charged — the paper accepts the double charge.
	if cacheOwner.Counters.Pages != 2 || pathOwner.Counters.Pages != 2 {
		t.Fatalf("charges: cache=%d path=%d, want 2 and 2",
			cacheOwner.Counters.Pages, pathOwner.Counters.Pages)
	}
	if b.mappings[dTCP.ID()] != PermRO {
		t.Fatal("association did not extend mappings")
	}
	if !b.frozen {
		t.Fatal("association must include locking")
	}
	var buf [4]byte
	if err := b.ReadAt(dTCP.ID(), 0, buf[:]); err != nil || !bytes.Equal(buf[:], []byte("page")) {
		t.Fatalf("path domain read: %v %q", err, buf)
	}
	m.Unlock(nil, ah)
	m.Unlock(nil, h)
}

func TestOwnerTeardownReleasesHolds(t *testing.T) {
	k, m := newEnv(t)
	d := k.Domains().Create("tcp")
	path := k.NewOwner("p", core.PathOwner)
	h, _ := m.Alloc(nil, path, 1, MapSpec{Current: d.ID()})
	b := h.Buffer()
	if b.refcnt != 1 {
		t.Fatal("setup")
	}
	k.DestroyOwner(path, true)
	if b.refcnt != 0 {
		t.Fatalf("refcnt = %d after owner teardown", b.refcnt)
	}
	if len(m.cache) != 1 {
		t.Fatal("buffer not parked after teardown")
	}
}

func TestDoubleUnlockPanics(t *testing.T) {
	k, m := newEnv(t)
	d := k.Domains().Create("tcp")
	path := k.NewOwner("p", core.PathOwner)
	h, _ := m.Alloc(nil, path, 1, MapSpec{Current: d.ID()})
	m.Unlock(nil, h)
	defer func() {
		if recover() == nil {
			t.Fatal("double unlock did not panic")
		}
	}()
	m.Unlock(nil, h)
}

func TestLockFreedBufferFails(t *testing.T) {
	k, m := newEnv(t)
	d := k.Domains().Create("tcp")
	path := k.NewOwner("p", core.PathOwner)
	// Fill the cache with parked buffers of another size, so the next
	// buffer released is freed, not parked.
	var parked []*Hold
	for i := 0; i < cacheLimit; i++ {
		h, _ := m.Alloc(nil, path, 2, MapSpec{Current: d.ID()})
		parked = append(parked, h)
	}
	for _, h := range parked {
		m.Unlock(nil, h)
	}
	h, _ := m.Alloc(nil, path, 1, MapSpec{Current: d.ID()})
	b := h.Buffer()
	m.Unlock(nil, h)
	if _, err := m.Associate(nil, b, path, MapSpec{Current: d.ID()}); !errors.Is(err, ErrFreed) {
		t.Fatalf("lock freed buffer err = %v", err)
	}
	if err := b.ReadAt(d.ID(), 0, make([]byte, 1)); !errors.Is(err, ErrFreed) {
		t.Fatalf("read freed buffer err = %v", err)
	}
}

func TestExhaustionError(t *testing.T) {
	eng := sim.New()
	k := kernel.New(eng, cost.Default(), kernel.Config{TotalPages: 4})
	defer k.Stop()
	m := NewManager(k)
	d := k.Domains().Create("tcp")
	path := k.NewOwner("p", core.PathOwner)
	if _, err := m.Alloc(nil, path, 100, MapSpec{Current: d.ID()}); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
}

func TestBoundsChecks(t *testing.T) {
	k, m := newEnv(t)
	d := k.Domains().Create("tcp")
	path := k.NewOwner("p", core.PathOwner)
	h, _ := m.Alloc(nil, path, 1, MapSpec{Current: d.ID()})
	b := h.Buffer()
	if err := b.WriteAt(d.ID(), b.pages*mem.PageSize-1, []byte("xy")); err == nil {
		t.Fatal("out-of-bounds write succeeded")
	}
	if err := b.ReadAt(d.ID(), -1, make([]byte, 1)); err == nil {
		t.Fatal("negative-offset read succeeded")
	}
}

func TestPermString(t *testing.T) {
	for _, p := range []Perm{PermNone, PermRO, PermRW, Perm(9)} {
		if p.String() == "" {
			t.Fatal("empty Perm string")
		}
	}
}

func TestCacheBoundedAndReclaims(t *testing.T) {
	// Parking more buffers than the cache limit reclaims the overflow to
	// the page allocator.
	k, m := newEnv(t)
	d := k.Domains().Create("x")
	owner := k.NewOwner("p", core.PathOwner)
	free0 := k.Pages().FreePages()
	var holds []*Hold
	for i := 0; i < 100; i++ {
		// Distinct sizes defeat reuse so each Alloc takes fresh pages.
		h, err := m.Alloc(nil, owner, 1+i%3, MapSpec{Current: d.ID()})
		if err != nil {
			t.Fatal(err)
		}
		holds = append(holds, h)
	}
	for _, h := range holds {
		m.Unlock(nil, h)
	}
	if len(m.cache) > 64 {
		t.Fatalf("cache len = %d exceeds limit", len(m.cache))
	}
	parked := 0
	for _, b := range m.cache {
		parked += b.pages
	}
	if k.Pages().FreePages() != free0-parked {
		t.Fatalf("pages leaked: %d free, want %d (%d parked)", k.Pages().FreePages(), free0-parked, parked)
	}
}

// TestHoldRefcountProperty: arbitrary alloc/associate/unlock interleavings
// keep the buffer refcount equal to the live hold count and never lose
// pages.
func TestHoldRefcountProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		eng := sim.New()
		k := kernel.New(eng, cost.Default(), kernel.Config{TotalPages: 512})
		defer k.Stop()
		m := NewManager(k)
		d := k.Domains().Create("x")
		owner := k.NewOwner("p", core.PathOwner)
		var live []*Hold
		for _, op := range ops {
			switch {
			case op%3 == 0 || len(live) == 0:
				h, err := m.Alloc(nil, owner, 1, MapSpec{Current: d.ID()})
				if err != nil {
					continue
				}
				live = append(live, h)
			case op%3 == 1:
				src := live[int(op)%len(live)]
				h, err := m.Associate(nil, src.Buffer(), owner, MapSpec{Current: d.ID()})
				if err != nil {
					continue
				}
				live = append(live, h)
			default:
				i := int(op) % len(live)
				m.Unlock(nil, live[i])
				live = append(live[:i], live[i+1:]...)
			}
			// Invariant: each buffer's refcount equals its live holds.
			counts := map[*Buffer]int{}
			for _, h := range live {
				counts[h.Buffer()]++
			}
			for b, n := range counts {
				if b.refcnt != n {
					return false
				}
			}
		}
		for _, h := range live {
			m.Unlock(nil, h)
		}
		return owner.Counters.Pages == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

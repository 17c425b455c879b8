package msg

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func owner() *core.Owner { return core.NewOwner("p", core.PathOwner) }

func TestPushPopRoundTrip(t *testing.T) {
	o := owner()
	m := FromBytes(o, []byte("payload"))
	hdr := m.Push(4)
	copy(hdr, "HDR:")
	if m.Len() != 11 {
		t.Fatalf("len = %d", m.Len())
	}
	if !bytes.Equal(m.Bytes(), []byte("HDR:payload")) {
		t.Fatalf("bytes = %q", m.Bytes())
	}
	got := m.Pop(4)
	if !bytes.Equal(got, []byte("HDR:")) {
		t.Fatalf("popped %q", got)
	}
	if !bytes.Equal(m.Bytes(), []byte("payload")) {
		t.Fatalf("after pop: %q", m.Bytes())
	}
	m.Free()
	if o.Counters.Kmem != 0 {
		t.Fatalf("kmem leaked: %d", o.Counters.Kmem)
	}
}

func TestPushBeyondHeadroomReallocates(t *testing.T) {
	o := owner()
	m := New(o, 2, 8)
	m.Append([]byte("abc"))
	h := m.Push(10) // exceeds the 2-byte headroom
	copy(h, "0123456789")
	if !bytes.Equal(m.Bytes(), []byte("0123456789abc")) {
		t.Fatalf("bytes = %q", m.Bytes())
	}
	m.Free()
	if o.Counters.Kmem != 0 {
		t.Fatal("kmem leaked after realloc")
	}
}

func TestPopTooMuchPanics(t *testing.T) {
	m := FromBytes(owner(), []byte("ab"))
	defer func() {
		if recover() == nil {
			t.Fatal("oversized pop did not panic")
		}
	}()
	m.Pop(3)
}

func TestTrim(t *testing.T) {
	m := FromBytes(owner(), []byte("abcdef"))
	m.Trim(3)
	if !bytes.Equal(m.Bytes(), []byte("abc")) {
		t.Fatalf("bytes = %q", m.Bytes())
	}
}

func TestSliceSharesBacking(t *testing.T) {
	o := owner()
	o2 := core.NewOwner("q", core.PathOwner)
	m := FromBytes(o, []byte("0123456789"))
	s := m.Slice(o2, 2, 5)
	if !bytes.Equal(s.Bytes(), []byte("23456")) {
		t.Fatalf("slice = %q", s.Bytes())
	}
	if m.b.refs != 2 {
		t.Fatalf("refs = %d", m.b.refs)
	}
	// Slice mutation via Push must not corrupt the original (copy-on-
	// write when shared).
	h := s.Push(2)
	copy(h, "XX")
	if !bytes.Equal(m.Bytes(), []byte("0123456789")) {
		t.Fatalf("original corrupted: %q", m.Bytes())
	}
	s.Free()
	m.Free()
	if o.Counters.Kmem != 0 || o2.Counters.Kmem != 0 {
		t.Fatalf("kmem leaked: %d %d", o.Counters.Kmem, o2.Counters.Kmem)
	}
}

func TestAppendOnSharedBackingCopies(t *testing.T) {
	o := owner()
	m := FromBytes(o, []byte("abc"))
	d := m.Dup(o)
	m.Append([]byte("XYZ"))
	if !bytes.Equal(d.Bytes(), []byte("abc")) {
		t.Fatalf("dup sees appended data: %q", d.Bytes())
	}
	if !bytes.Equal(m.Bytes(), []byte("abcXYZ")) {
		t.Fatalf("append lost: %q", m.Bytes())
	}
	d.Free()
	m.Free()
}

func TestFreeOrderIndependence(t *testing.T) {
	o := owner()
	m := FromBytes(o, []byte("data"))
	s1 := m.Slice(o, 0, 2)
	s2 := m.Slice(o, 2, 2)
	m.Free() // original freed first; slices must stay valid
	if !bytes.Equal(s1.Bytes(), []byte("da")) || !bytes.Equal(s2.Bytes(), []byte("ta")) {
		t.Fatal("slices invalidated by original free")
	}
	s1.Free()
	s2.Free()
	if o.Counters.Kmem != 0 {
		t.Fatalf("kmem leaked: %d", o.Counters.Kmem)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	m := FromBytes(owner(), []byte("x"))
	m.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	m.Free()
}

// TestHeaderStackProperty: pushing N headers then popping them yields the
// original payload regardless of sizes — the invariant the protocol
// stack depends on.
func TestHeaderStackProperty(t *testing.T) {
	f := func(payload []byte, hdrs []uint8) bool {
		o := owner()
		m := FromBytes(o, payload)
		var pushed [][]byte
		for i, hn := range hdrs {
			n := int(hn%40) + 1
			h := m.Push(n)
			for j := range h {
				h[j] = byte(i)
			}
			cp := make([]byte, n)
			copy(cp, h)
			pushed = append(pushed, cp)
		}
		for i := len(pushed) - 1; i >= 0; i-- {
			got := m.Pop(len(pushed[i]))
			if !bytes.Equal(got, pushed[i]) {
				return false
			}
		}
		ok := bytes.Equal(m.Bytes(), payload)
		m.Free()
		return ok && o.Counters.Kmem == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestKmemAlwaysBalances: arbitrary slice/free/push/append
// interleavings leave no residual kmem charge. Push and Append on a
// shared or full backing reallocate, and the sizes drawn cross every
// size class and go past the largest one, so reallocation moves
// messages between classes and out of them.
func TestKmemAlwaysBalances(t *testing.T) {
	f := func(ops []uint16) bool {
		o := owner()
		root := FromBytes(o, bytes.Repeat([]byte("x"), 100))
		live := []*Msg{root}
		for _, op := range ops {
			if len(live) == 0 {
				break
			}
			m := live[int(op)%len(live)]
			switch op % 5 {
			case 0:
				if m.Len() > 1 {
					live = append(live, m.Slice(o, 0, m.Len()/2))
				}
			case 1:
				m.Push(int(op>>3) % 200)
			case 2:
				m.Append(make([]byte, int(op>>3)*16)) // up to ~128 KiB
			default:
				i := int(op>>3) % len(live)
				live[i].Free()
				live = append(live[:i], live[i+1:]...)
			}
		}
		for _, m := range live {
			m.Free()
		}
		return o.Counters.Kmem == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestChargesUseLengthNotCapacity pins the kmem charge of a pooled
// backing: headroom plus capacity plus the descriptor, byte for byte,
// whatever size class the backing came from.
func TestChargesUseLengthNotCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 100, 255, 256, 257, 1000, 64 << 10, 64<<10 + 1, 200 << 10} {
		o := owner()
		m := New(o, DefaultHeadroom, n)
		if want := uint64(DefaultHeadroom + n + msgKmem); o.Counters.Kmem != want {
			t.Fatalf("New(%d, %d) charged %d, want %d", DefaultHeadroom, n, o.Counters.Kmem, want)
		}
		m.Free()
		if o.Counters.Kmem != 0 {
			t.Fatalf("size %d: %d bytes left charged after Free", n, o.Counters.Kmem)
		}
	}
}

func TestBytesAfterFreePanics(t *testing.T) {
	m := FromBytes(owner(), []byte("x"))
	m.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes on a freed message did not panic")
		}
	}()
	m.Bytes()
}

// TestStaleSliceReadsPoison: a byte slice kept past the last Free of
// its message reads poison in a test binary, not the old payload, so a
// late reader changes what it computes instead of passing silently.
func TestStaleSliceReadsPoison(t *testing.T) {
	o := owner()
	m := FromBytes(o, []byte("payload"))
	s := m.Slice(o, 0, 3)
	kept := m.Bytes()
	m.Free()
	if !bytes.Equal(kept, []byte("payload")) {
		t.Fatal("a live slice's backing was released early")
	}
	s.Free()
	if !bytes.Equal(kept, bytes.Repeat([]byte{poisonByte}, len(kept))) {
		t.Fatalf("bytes kept past the last Free read %q, want poison", kept)
	}
}

// TestReleasedBackingIsRecycled: a backing returns to its class with its
// owner cleared, and a message of the same class made by another owner
// takes it back without the old owner ever being charged again.
func TestReleasedBackingIsRecycled(t *testing.T) {
	a, b := owner(), core.NewOwner("q", core.PathOwner)
	m := New(a, DefaultHeadroom, 300)
	back := m.b
	m.Free()
	if back.owner != nil || back.refs != 0 {
		t.Fatalf("released backing kept owner %v, refs %d", back.owner, back.refs)
	}
	m2 := New(b, DefaultHeadroom, 200) // same 512 B class
	defer m2.Free()
	if a.Counters.Kmem != 0 {
		t.Fatalf("old owner charged %d after reuse", a.Counters.Kmem)
	}
	if m2.b.owner != b || len(m2.b.data) != DefaultHeadroom+200 || cap(m2.b.data) != 512 {
		t.Fatalf("reused backing: owner %v, len %d, cap %d", m2.b.owner, len(m2.b.data), cap(m2.b.data))
	}
}

func TestOverReleasePanics(t *testing.T) {
	m := FromBytes(owner(), []byte("x"))
	b := m.b
	m.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a backing with no references did not panic")
		}
	}()
	(&Msg{b: b}).releaseBacking()
}

// TestNewFreeAllocatesOnlyTheDescriptor: once a size class is warm, a
// message costs one allocation, its descriptor.
func TestNewFreeAllocatesOnlyTheDescriptor(t *testing.T) {
	o := owner()
	New(o, DefaultHeadroom, 1000).Free()
	allocs := testing.AllocsPerRun(1000, func() {
		New(o, DefaultHeadroom, 1000).Free()
	})
	if allocs != 1 {
		t.Fatalf("New+Free allocates %.1f objects, want 1 (the descriptor)", allocs)
	}
}

// TestPoolsAcrossGoroutines: the size-class pools are shared by every
// simulation in the process. Messages made and freed on several
// goroutines at once keep their own bytes and charges (run under -race).
func TestPoolsAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o := core.NewOwner("g", core.PathOwner)
			want := bytes.Repeat([]byte{byte(g)}, 300)
			for i := 0; i < 500; i++ {
				m := FromBytes(o, want[:1+i%300])
				s := m.Slice(o, 0, m.Len())
				m.Push(20)
				if !bytes.Equal(s.Bytes(), want[:1+i%300]) {
					t.Errorf("goroutine %d: message %d holds another message's bytes", g, i)
					return
				}
				m.Free()
				s.Free()
			}
			if o.Counters.Kmem != 0 {
				t.Errorf("goroutine %d: %d bytes left charged", g, o.Counters.Kmem)
			}
		}(g)
	}
	wg.Wait()
}

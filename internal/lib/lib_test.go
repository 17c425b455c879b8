package lib

import (
	"testing"
	"testing/quick"
)

func TestListPushRemove(t *testing.T) {
	var l List
	a, b, c := &Node{Value: "a"}, &Node{Value: "b"}, &Node{Value: "c"}
	l.PushBack(a)
	l.PushBack(b)
	l.PushBack(c)
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	if l.Front() != a {
		t.Fatal("first PushBack is not the head")
	}
	l.Remove(b)
	if b.list != nil {
		t.Fatal("removed node still linked")
	}
	var got []string
	for n := l.Front(); n != nil; n = n.next {
		got = append(got, n.Value.(string))
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("list contents %v, want [a c]", got)
	}
}

// TestListRemoveDuringEach walks the list the way owner teardown does,
// taking the head each time, while every release also unlinks a
// sibling further down.
func TestListRemoveDuringEach(t *testing.T) {
	var l List
	nodes := make([]*Node, 10)
	for i := range nodes {
		nodes[i] = &Node{Value: i}
		l.PushBack(nodes[i])
	}
	var got []int
	for n := l.Front(); n != nil; n = l.Front() {
		l.Remove(n)
		i := n.Value.(int)
		got = append(got, i)
		if i+5 < len(nodes) {
			l.Remove(nodes[i+5])
		}
	}
	if l.Len() != 0 || len(got) != 5 {
		t.Fatalf("len = %d after draining, visited %v", l.Len(), got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("visited %v, want [0 1 2 3 4]", got)
		}
	}
}

func TestListDoubleInsertPanics(t *testing.T) {
	var l List
	n := &Node{}
	l.PushBack(n)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	l.PushBack(n)
}

func TestListCrossListRemovePanics(t *testing.T) {
	var l1, l2 List
	n := &Node{}
	l1.PushBack(n)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-list remove did not panic")
		}
	}()
	l2.Remove(n)
}

func TestListRemoveUnlinkedIsNoop(t *testing.T) {
	var l List
	l.Remove(&Node{}) // must not panic
	if l.Len() != 0 {
		t.Fatal("len changed")
	}
}

// TestListPopFront drains the list from the head: Front is nil when
// empty and unlinking the head each time yields push order.
func TestListPopFront(t *testing.T) {
	var l List
	if l.Front() != nil {
		t.Fatal("Front on empty list should return nil")
	}
	a, b := &Node{Value: 1}, &Node{Value: 2}
	l.PushBack(a)
	l.PushBack(b)
	var got []*Node
	for n := l.Front(); n != nil; n = l.Front() {
		l.Remove(n)
		got = append(got, n)
	}
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatal("pop order wrong")
	}
}

// TestListMatchesSliceModel drives the list with random operations and
// compares against a plain slice model.
func TestListMatchesSliceModel(t *testing.T) {
	f := func(ops []uint8) bool {
		var l List
		var model []*Node
		for _, op := range ops {
			switch {
			case op%3 == 0 || len(model) == 0: // push
				n := &Node{Value: int(op)}
				l.PushBack(n)
				model = append(model, n)
			case op%3 == 1: // remove head
				l.Remove(model[0])
				model = model[1:]
			default: // remove arbitrary
				i := int(op) % len(model)
				l.Remove(model[i])
				model = append(model[:i], model[i+1:]...)
			}
			if l.Len() != len(model) {
				return false
			}
		}
		i := 0
		for n := l.Front(); n != nil; n = n.next {
			if i >= len(model) || model[i] != n {
				return false
			}
			i++
		}
		return i == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHashBasic(t *testing.T) {
	h := NewHash(4)
	if _, ok := h.Get(1); ok {
		t.Fatal("empty table returned a value")
	}
	if !h.Put(1, "one") {
		t.Fatal("first Put should report new key")
	}
	if h.Put(1, "uno") {
		t.Fatal("overwriting Put should report existing key")
	}
	v, ok := h.Get(1)
	if !ok || v != "uno" {
		t.Fatalf("Get = %v %v, want uno true", v, ok)
	}
	if !h.Delete(1) || h.Delete(1) {
		t.Fatal("Delete semantics wrong")
	}
	if h.Len() != 0 {
		t.Fatalf("len = %d, want 0", h.Len())
	}
}

func TestHashGrowsAndKeepsEntries(t *testing.T) {
	h := NewHash(1)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		h.Put(i, i*2)
	}
	if h.Len() != n {
		t.Fatalf("len = %d, want %d", h.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := h.Get(i)
		if !ok || v.(uint64) != i*2 {
			t.Fatalf("key %d lost across growth", i)
		}
	}
	if h.MemSize() <= 0 {
		t.Fatal("MemSize must be positive")
	}
}

// TestHashMatchesMapModel compares the hash table against Go's map under a
// random operation sequence.
func TestHashMatchesMapModel(t *testing.T) {
	f := func(ops []struct {
		Key uint8
		Del bool
		Val int
	}) bool {
		h := NewHash(2)
		model := map[uint64]int{}
		for _, op := range ops {
			k := uint64(op.Key)
			if op.Del {
				_, inModel := model[k]
				if h.Delete(k) != inModel {
					return false
				}
				delete(model, k)
			} else {
				_, inModel := model[k]
				if h.Put(k, op.Val) == inModel {
					return false
				}
				model[k] = op.Val
			}
		}
		if h.Len() != len(model) {
			return false
		}
		seen := 0
		good := true
		h.Each(func(k uint64, v any) {
			seen++
			if mv, ok := model[k]; !ok || mv != v.(int) {
				good = false
			}
		})
		return good && seen == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFOAndBounds(t *testing.T) {
	q := NewQueue(3)
	for i := 0; i < 3; i++ {
		if err := q.Enqueue(i); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := q.Enqueue(99); err != ErrQueueFull {
		t.Fatalf("overflow enqueue err = %v, want ErrQueueFull", err)
	}
	for i := 0; i < 3; i++ {
		v, ok := q.Dequeue()
		if !ok || v.(int) != i {
			t.Fatalf("dequeue = %v %v, want %d true", v, ok, i)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue from empty queue succeeded")
	}
}

func TestQueueWrapAround(t *testing.T) {
	q := NewQueue(4)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if err := q.Enqueue(round*10 + i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			v, _ := q.Dequeue()
			if v.(int) != round*10+i {
				t.Fatalf("round %d: got %v", round, v)
			}
		}
	}
}

func TestQueueFlush(t *testing.T) {
	q := NewQueue(8)
	for i := 0; i < 5; i++ {
		_ = q.Enqueue(i)
	}
	var dropped []int
	q.Flush(func(v any) { dropped = append(dropped, v.(int)) })
	if len(dropped) != 5 || q.Len() != 0 {
		t.Fatalf("flush dropped %v, len %d", dropped, q.Len())
	}
	q.Flush(nil) // empty + nil fn must be safe
}

// Growing the ring while its contents wrap past the end keeps FIFO
// order: grow unwraps head..end before 0..head.
func TestQueueGrowWhileWrapped(t *testing.T) {
	q := NewQueue(64)
	next, want := 0, 0
	for i := 0; i < minQueueRing; i++ {
		_ = q.Enqueue(next)
		next++
	}
	for i := 0; i < 3; i++ { // head moves to 3; the ring is full again after 3 more
		v, _ := q.Dequeue()
		if v.(int) != want {
			t.Fatalf("dequeue = %v, want %d", v, want)
		}
		want++
	}
	for i := 0; i < 3; i++ {
		_ = q.Enqueue(next)
		next++
	}
	if q.Slots() != minQueueRing || q.head == 0 {
		t.Fatalf("set-up: slots=%d head=%d, want a full wrapped ring", q.Slots(), q.head)
	}
	for i := 0; i < 40; i++ { // forces growth from the wrapped ring, twice over
		_ = q.Enqueue(next)
		next++
	}
	for want < next {
		v, ok := q.Dequeue()
		if !ok || v.(int) != want {
			t.Fatalf("dequeue = %v %v, want %d", v, ok, want)
		}
		want++
	}
}

// The bound holds while the ring grows lazily, including a bound that
// is not a power of two, and Cap reports it before any storage exists.
func TestQueueLazyRingKeepsBound(t *testing.T) {
	for _, bound := range []int{1, 3, 128} {
		q := NewQueue(bound)
		if q.bound != bound || q.Slots() != 0 {
			t.Fatalf("bound %d: new queue cap=%d slots=%d", bound, q.bound, q.Slots())
		}
		for i := 0; i < bound; i++ {
			if err := q.Enqueue(i); err != nil {
				t.Fatalf("bound %d: enqueue %d: %v", bound, i, err)
			}
		}
		if err := q.Enqueue(bound); err != ErrQueueFull {
			t.Fatalf("bound %d: enqueue past the bound: %v", bound, err)
		}
		if q.Slots() != bound || q.bound != bound {
			t.Fatalf("bound %d: full queue slots=%d cap=%d", bound, q.Slots(), q.bound)
		}
		q.Flush(nil)
		if q.Slots() != 0 || q.bound != bound {
			t.Fatalf("bound %d: flushed queue slots=%d cap=%d", bound, q.Slots(), q.bound)
		}
		if err := q.Enqueue(7); err != nil {
			t.Fatalf("bound %d: enqueue after flush: %v", bound, err)
		}
	}
}

func TestAttrs(t *testing.T) {
	a := Attrs{AttrLocalPort: 80, AttrTrustClass: "trusted", AttrPassive: true}
	if v, ok := a.Int(AttrLocalPort); !ok || v != 80 {
		t.Fatal("Int accessor failed")
	}
	if v, ok := a.String(AttrTrustClass); !ok || v != "trusted" {
		t.Fatal("String accessor failed")
	}
	if !a.Bool(AttrPassive) || a.Bool("absent") {
		t.Fatal("Bool accessor failed")
	}
	if _, ok := a.Int(AttrTrustClass); ok {
		t.Fatal("type-mismatched accessor returned ok")
	}
}

func TestConnKeyDistinguishesDirections(t *testing.T) {
	a := ConnKey(IPv4(10, 0, 0, 1), 80, IPv4(10, 0, 0, 2), 5000)
	b := ConnKey(IPv4(10, 0, 0, 2), 5000, IPv4(10, 0, 0, 1), 80)
	if a == b {
		t.Fatal("swapped endpoints produced the same connection key")
	}
}

func TestPairKey(t *testing.T) {
	if PairKey(1, 2) == PairKey(2, 1) {
		t.Fatal("PairKey must be direction-sensitive")
	}
	if PairKey(0, 7) != 7 {
		t.Fatalf("PairKey(0,7) = %d", PairKey(0, 7))
	}
}

package sched

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

type ent struct {
	name string
	st   *State
}

func newEnt(name string, share Share) *ent {
	sh := share
	return &ent{name: name, st: NewState(&sh)}
}

func (e *ent) SchedState() *State { return e.st }

func TestStrideProportionalFairness(t *testing.T) {
	// Two entities with 3:1 tickets must receive CPU in a 3:1 ratio when
	// both are always runnable.
	s := NewStride()
	a := newEnt("a", Share{Tickets: 300})
	b := newEnt("b", Share{Tickets: 100})
	used := map[*ent]sim.Cycles{}
	s.Enqueue(a)
	s.Enqueue(b)
	const quantum = 1000
	for i := 0; i < 4000; i++ {
		e := s.Dequeue().(*ent)
		used[e] += quantum
		s.Charged(e, quantum)
		s.Enqueue(e)
	}
	ratio := float64(used[a]) / float64(used[b])
	if ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("share ratio = %.2f, want ~3.0", ratio)
	}
}

func TestStrideVariableQuanta(t *testing.T) {
	// Entity a consumes 5x longer quanta; with equal tickets the scheduler
	// must compensate by running b 5x more often.
	s := NewStride()
	a := newEnt("a", Share{Tickets: 100})
	b := newEnt("b", Share{Tickets: 100})
	used := map[*ent]sim.Cycles{}
	s.Enqueue(a)
	s.Enqueue(b)
	for i := 0; i < 6000; i++ {
		e := s.Dequeue().(*ent)
		q := sim.Cycles(100)
		if e == a {
			q = 500
		}
		used[e] += q
		s.Charged(e, q)
		s.Enqueue(e)
	}
	ratio := float64(used[a]) / float64(used[b])
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("cycle ratio = %.2f, want ~1.0 under variable quanta", ratio)
	}
}

func TestStrideLateJoinerGetsNoBackCredit(t *testing.T) {
	s := NewStride()
	a := newEnt("a", Share{Tickets: 100})
	s.Enqueue(a)
	for i := 0; i < 1000; i++ {
		e := s.Dequeue()
		s.Charged(e, 1000)
		s.Enqueue(e)
	}
	// b joins late; it must not monopolize the CPU to "catch up".
	b := newEnt("b", Share{Tickets: 100})
	s.Enqueue(b)
	bRuns := 0
	for i := 0; i < 100; i++ {
		e := s.Dequeue().(*ent)
		if e == b {
			bRuns++
		}
		s.Charged(e, 1000)
		s.Enqueue(e)
	}
	if bRuns > 60 {
		t.Fatalf("late joiner ran %d/100 slots; back-credit leak", bRuns)
	}
}

func TestStrideZeroTicketsTreatedAsOne(t *testing.T) {
	s := NewStride()
	a := newEnt("a", Share{}) // zero tickets
	s.Enqueue(a)
	e := s.Dequeue()
	s.Charged(e, 100) // must not divide by zero
	if e != a {
		t.Fatal("wrong entity")
	}
}

func TestPrioritySchedulerOrder(t *testing.T) {
	p := NewPriority()
	low := newEnt("low", Share{Priority: 1})
	hi := newEnt("hi", Share{Priority: 5})
	mid := newEnt("mid", Share{Priority: 3})
	p.Enqueue(low)
	p.Enqueue(hi)
	p.Enqueue(mid)
	want := []*ent{hi, mid, low}
	for _, w := range want {
		if got := p.Dequeue(); got != w {
			t.Fatalf("dequeue = %v, want %v", got.(*ent).name, w.name)
		}
	}
	if p.Dequeue() != nil {
		t.Fatal("empty scheduler returned an entity")
	}
}

func TestPriorityFIFOWithinLevel(t *testing.T) {
	p := NewPriority()
	var es []*ent
	for i := 0; i < 5; i++ {
		e := newEnt(string(rune('a'+i)), Share{Priority: 2})
		es = append(es, e)
		p.Enqueue(e)
	}
	for i := 0; i < 5; i++ {
		if p.Dequeue() != es[i] {
			t.Fatal("same-priority entities not FIFO")
		}
	}
}

func TestPriorityClamping(t *testing.T) {
	p := NewPriority()
	over := newEnt("", Share{Priority: 1000})
	under := newEnt("", Share{Priority: -5})
	p.Enqueue(under)
	p.Enqueue(over)
	if p.Dequeue() != over || p.Dequeue() != under {
		t.Fatal("clamped priorities ordered wrong")
	}
}

func TestEDFOrder(t *testing.T) {
	e := NewEDF()
	a := newEnt("a", Share{Deadline: 300})
	b := newEnt("b", Share{Deadline: 100})
	c := newEnt("c", Share{}) // no deadline: background
	e.Enqueue(a)
	e.Enqueue(b)
	e.Enqueue(c)
	if e.Dequeue() != b || e.Dequeue() != a || e.Dequeue() != c {
		t.Fatal("EDF order wrong")
	}
}

func TestEDFPeriodicDeadlineAdvance(t *testing.T) {
	e := NewEDF()
	a := newEnt("", Share{Deadline: 100, Period: 50})
	e.Enqueue(a)
	e.Dequeue()
	if a.st.share.Deadline != 150 {
		t.Fatalf("deadline = %d, want 150", a.st.share.Deadline)
	}
}

// queueLen counts the entities queued in s.
func queueLen(s Scheduler) int {
	switch s := s.(type) {
	case *Stride:
		return len(s.queue)
	case *EDF:
		return len(s.queue)
	case *Priority:
		n := 0
		for _, l := range s.levels {
			n += len(l)
		}
		return n
	}
	panic(fmt.Sprintf("queueLen: unknown scheduler %T", s))
}

func TestRemoveAndDoubleEnqueue(t *testing.T) {
	for _, s := range []Scheduler{NewStride(), NewPriority(), NewEDF()} {
		a := newEnt("a", Share{Tickets: 1})
		s.Enqueue(a)
		s.Enqueue(a) // double enqueue is a no-op
		if n := queueLen(s); n != 1 {
			t.Fatalf("%T: len = %d after double enqueue", s, n)
		}
		s.Remove(a)
		if queueLen(s) != 0 || a.SchedState().inQueue {
			t.Fatalf("%T: remove failed", s)
		}
		s.Remove(a) // double remove is a no-op
		if s.Dequeue() != nil {
			t.Fatalf("%T: dequeue after remove returned entity", s)
		}
	}
}

func TestNewByName(t *testing.T) {
	if _, ok := New("priority").(*Priority); !ok {
		t.Fatal("priority factory")
	}
	for _, name := range []string{"stride", "proportional-share"} {
		if _, ok := New(name).(*Stride); !ok {
			t.Fatalf("%s factory", name)
		}
	}
	if _, ok := New("edf").(*EDF); !ok {
		t.Fatal("edf factory")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown scheduler name did not panic")
		}
	}()
	New("bogus")
}

// TestStrideFairnessProperty: for arbitrary ticket assignments, long-run
// CPU shares converge to ticket shares within 10%.
func TestStrideFairnessProperty(t *testing.T) {
	f := func(t1, t2, t3 uint8) bool {
		tickets := []uint64{uint64(t1%50) + 1, uint64(t2%50) + 1, uint64(t3%50) + 1}
		s := NewStride()
		ents := make([]*ent, 3)
		used := make([]sim.Cycles, 3)
		for i := range ents {
			ents[i] = newEnt("", Share{Tickets: tickets[i]})
			s.Enqueue(ents[i])
		}
		const rounds = 30000
		for i := 0; i < rounds; i++ {
			e := s.Dequeue().(*ent)
			var idx int
			for j := range ents {
				if ents[j] == e {
					idx = j
				}
			}
			used[idx] += 100
			s.Charged(e, 100)
			s.Enqueue(e)
		}
		var totTickets uint64
		var totUsed sim.Cycles
		for i := range tickets {
			totTickets += tickets[i]
			totUsed += used[i]
		}
		for i := range tickets {
			want := float64(tickets[i]) / float64(totTickets)
			got := float64(used[i]) / float64(totUsed)
			if got < want*0.9-0.01 || got > want*1.1+0.01 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerNeverLosesEntities: random enqueue/dequeue/remove traffic
// conserves the entity population for every scheduler.
func TestSchedulerNeverLosesEntities(t *testing.T) {
	f := func(ops []uint8, kind uint8) bool {
		var s Scheduler
		switch kind % 3 {
		case 0:
			s = NewStride()
		case 1:
			s = NewPriority()
		default:
			s = NewEDF()
		}
		pool := make([]*ent, 8)
		for i := range pool {
			pool[i] = newEnt("", Share{Tickets: uint64(i + 1), Priority: i % NumPriorities, Deadline: sim.Cycles(i * 10)})
		}
		queued := map[*ent]bool{}
		for _, op := range ops {
			e := pool[int(op)%len(pool)]
			switch op % 3 {
			case 0:
				s.Enqueue(e)
				queued[e] = true
			case 1:
				got := s.Dequeue()
				if got == nil {
					if len(queued) != 0 {
						return false
					}
				} else {
					if !queued[got.(*ent)] {
						return false
					}
					delete(queued, got.(*ent))
				}
			case 2:
				s.Remove(e)
				delete(queued, e)
			}
			if queueLen(s) != len(queued) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

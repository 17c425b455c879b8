package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, _ := MapErr(100, workers, func(i int) (int, error) { return i * i, nil })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapRunsEveryPointOnce(t *testing.T) {
	var counts [200]atomic.Int32
	MapErr(len(counts), 8, func(i int) (struct{}, error) {
		counts[i].Add(1)
		return struct{}{}, nil
	})
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("point %d ran %d times", i, n)
		}
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	wantErr := errors.New("point 3 failed")
	for _, workers := range []int{1, 8} {
		_, err := MapErr(10, workers, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, wantErr
			case 7:
				return 0, errors.New("point 7 failed")
			}
			return i, nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: err = %v, want lowest-index error %v", workers, err, wantErr)
		}
	}
}

func TestMapErrNilOnSuccess(t *testing.T) {
	got, err := MapErr(5, 3, func(i int) (string, error) {
		return fmt.Sprintf("p%d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != fmt.Sprintf("p%d", i) {
			t.Fatalf("got[%d] = %q", i, v)
		}
	}
}

func TestMapPanicReportsLowestIndex(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		if !strings.Contains(fmt.Sprint(r), "point 2 panicked") {
			t.Fatalf("panic %v, want lowest panicking index 2", r)
		}
	}()
	MapErr(10, 4, func(i int) (int, error) {
		if i == 2 || i == 6 {
			panic(fmt.Sprintf("boom %d", i))
		}
		return i, nil
	})
}

func TestMapZeroPoints(t *testing.T) {
	if got, _ := MapErr(0, 8, func(i int) (int, error) { return i, nil }); len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers = %d", DefaultWorkers())
	}
}

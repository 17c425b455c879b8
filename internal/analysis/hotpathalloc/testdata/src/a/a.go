// Fixture for the hotpathalloc analyzer. The test marks this package
// as hot and its own types as observability types (ObsPath = "a").
package a

import (
	"fmt"
	"io"
)

type tracer struct{ n int }

type ring struct {
	buf   []byte
	items []int
}

func hotSprintf(n int) string {
	return fmt.Sprintf("pkt-%d", n) // want `fmt\.Sprintf formats into a fresh string` `argument n is boxed into interface parameter`
}

// coldError allocates only on the error exit: pricing failure is fine,
// the connection is dying anyway.
func coldError(fail bool) error {
	if fail {
		return fmt.Errorf("boom %d", 7)
	}
	return nil
}

var errSentinel = fmt.Errorf("sentinel")

type errT struct{}

func (*errT) Error() string { return "errT" }

// passErr ends in `return err`, but err is nil on the success path, so
// the allocation before it is on the hot path.
func passErr(f func() error) error {
	err := f()
	xs := make([]int, 4) // want `make allocates a slice`
	_ = xs
	return err
}

// passErrAfterCheck returns err outside its nil check: still hot.
func passErrAfterCheck(f func() error) error {
	err := f()
	if err != nil {
		_ = err
	}
	_ = make([]int, 4) // want `make allocates a slice`
	return err
}

// coldReturns end in errors provably non-nil: a checked variable, a
// sentinel, a constructor and a composite literal.
func coldChecked(f func() error) error {
	if err := f(); err != nil {
		_ = make([]int, 4)
		return err
	}
	return nil
}

func coldSentinel(fail, eof bool) error {
	if eof {
		_ = make([]int, 4)
		return io.EOF
	}
	if fail {
		_ = make([]int, 4)
		return errSentinel
	}
	return nil
}

func coldConstructed(fail bool) (int, error) {
	if fail {
		_ = make([]int, 4)
		return 0, &errT{}
	}
	return 1, nil
}

// guarded allocations are zero-cost when tracing is disabled.
func guarded(tr *tracer, n int) {
	if tr != nil {
		_ = fmt.Sprintf("trace-%d", n)
	}
}

func allocers() {
	m := make(map[int]int) // want `make allocates a map`
	_ = m
	ch := make(chan int) // want `make allocates a channel`
	_ = ch
	p := new(ring) // want `new\(T\) allocates`
	_ = p
}

//escort:coldpath constructor, runs once per connection
func newRing() *ring {
	return &ring{buf: make([]byte, 4096)}
}

func grow(r *ring) {
	r.buf = append(r.buf, make([]byte, 64)...) //escort:coldpath arena growth, amortized
}

func pushItem(r *ring, v int) {
	r.items = append(r.items, v) // want `append growing field r\.items is unbounded per-packet state`
}

// removeItem is the in-place removal idiom: both append arguments
// reslice the destination field, so nothing allocates.
func removeItem(r *ring, i int) {
	r.items = append(r.items[:i], r.items[i+1:]...)
}

// forward spreads an existing []any into a variadic ...any parameter:
// the slice passes through unboxed.
func forward(args ...any) int {
	return variadicSink(args...)
}

func variadicSink(vs ...any) int { return len(vs) }

// Sink is imported by the cross-package fixture in ../b.
func Sink(vs ...any) int { return len(vs) }

// localAppend is bounded scratch: not flagged.
func localAppend(vs []int) int {
	var scratch []int
	scratch = append(scratch, vs...)
	return len(scratch)
}

func capturingClosure(n int) func() int {
	return func() int { return n } // want `closure captures enclosing variables`
}

func nonCapturing() func() int {
	return func() int { return 42 }
}

func concat(a, b string) string {
	return a + b // want `string concatenation builds a new string`
}

func literals() {
	xs := []int{1, 2, 3} // want `slice literal \[\]int`
	_ = xs
	r := &ring{} // want `&composite literal escapes to the heap`
	_ = r
}

func box(v int) any {
	return any(v) // want `conversion boxes v into an interface`
}

// panicPath allocates only on the panic exit.
func panicPath(ok bool) {
	if !ok {
		panic(fmt.Sprintf("bad state %d", 1))
	}
}

package a

type counter struct {
	hits   int // want `field hits is written but never read`
	misses int
	Total  int // exported: other packages may read it
}

func (c *counter) hit()  { c.hits++ }
func (c *counter) miss() { c.misses += 1 }

func (c *counter) ratio() int { return c.misses }

type table struct {
	byKey  map[string]int // want `field byKey is written but never read`
	order  []string       // want `field order is written but never read`
	next   *table         // want `field next is written but never read`
	size   int
	shared []int
	addr   int
	ranged []int
	_      int
}

func newTable() *table {
	return &table{byKey: map[string]int{}, next: nil}
}

func (t *table) put(k string, v int) {
	t.byKey[k] = v
	t.order = append(t.order, k)
	t.size++
	t.shared = append(t.shared[:0], v) // the re-slice reads shared
}

func (t *table) len() int { return t.size }

func (t *table) point() *int { return &t.addr }

func (t *table) sum() (n int) {
	for _, v := range t.ranged {
		n += v
	}
	return n
}

// Fields of a generic type count as read through any instantiation.
type box[T any] struct {
	val  T
	seen bool // want `field seen is written but never read`
}

func (b *box[T]) set(v T) { b.val, b.seen = v, true }

func get() int {
	b := box[int]{}
	b.set(1)
	return b.val
}

// Only the package's tests read onlyTests; with test files in the pass
// it counts as read.
type probe struct {
	onlyTests int
}

func (p *probe) bump() { p.onlyTests++ }

// A local struct type's fields are checked too.
func local() int {
	var s struct {
		x int
		y int // want `field y is written but never read`
	}
	s.x, s.y = 1, 2
	return s.x
}

// A shadowed append is an ordinary call: its arguments are reads.
func shadow(xs []int) []int {
	append := func(a []int, v int) []int { return a }
	var t struct{ list []int }
	t.list = append(t.list, 1)
	return t.list[:0]
}

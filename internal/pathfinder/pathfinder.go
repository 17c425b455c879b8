// Package pathfinder implements a PATHFINDER-style pattern-based packet
// classifier (Bailey et al., OSDI 1994 — the paper's reference [2]).
// Escort's base demultiplexer trusts each module's demux function; the
// paper points to pattern-based classification as the alternative with
// more liberal trust assumptions: modules *declare* patterns (sequences
// of masked byte comparisons) instead of running code at interrupt
// time, and the kernel evaluates them.
//
// Patterns over the same header layout share structure, so the
// classifier merges them into a decision DAG: one node per
// (offset, mask) line with a value-indexed branch table. Classifying a
// frame walks one root-to-leaf line regardless of how many connections
// are installed — the property that makes per-connection patterns
// practical.
package pathfinder

import (
	"fmt"
	"sort"
	"strings"
)

// Cell is one masked comparison: frame[Offset : Offset+len(Mask)] & Mask
// must equal Value. Mask and Value must have equal length.
type Cell struct {
	Offset int
	Mask   []byte
	Value  []byte
}

// NewCell builds a cell, normalizing Value through the mask.
func NewCell(offset int, mask, value []byte) Cell {
	if len(mask) != len(value) {
		panic("pathfinder: mask/value length mismatch")
	}
	v := make([]byte, len(value))
	for i := range value {
		v[i] = value[i] & mask[i]
	}
	return Cell{Offset: offset, Mask: append([]byte(nil), mask...), Value: v}
}

func (c Cell) key() string {
	return fmt.Sprintf("%d/%x", c.Offset, c.Mask)
}

// matches evaluates the cell against a frame.
func (c Cell) matches(frame []byte) bool {
	if c.Offset+len(c.Mask) > len(frame) {
		return false
	}
	for i, m := range c.Mask {
		if frame[c.Offset+i]&m != c.Value[i] {
			return false
		}
	}
	return true
}

// Pattern is a named sequence of cells mapping to an opaque target
// (the path, in Escort's use). Priority breaks ties when several
// patterns match: higher wins (a connection pattern outranks its
// listener's wildcard pattern).
type Pattern struct {
	Name     string
	Cells    []Cell
	Priority int
	Target   any
}

// node is one level of the decision DAG: all patterns whose next cell
// shares (offset, mask) branch here by value.
type node struct {
	key      string
	offset   int
	mask     []byte
	branches map[string]*node // masked value -> next level
	// leaves are patterns that end at this node.
	leaves []*Pattern
	// others holds patterns whose next cell has a different (offset,
	// mask) line — evaluated sequentially (rare with aligned headers).
	others []*node
}

func newNode(c Cell) *node {
	return &node{
		key:      c.key(),
		offset:   c.Offset,
		mask:     append([]byte(nil), c.Mask...),
		branches: make(map[string]*node),
	}
}

// Classifier is the pattern store plus matcher.
type Classifier struct {
	root *node

	patterns map[string]*Pattern

	// Matches and Misses count classification outcomes; CellsEvaluated
	// measures matcher work for the ablation benchmarks.
	Matches        uint64
	Misses         uint64
	CellsEvaluated uint64
}

// New returns an empty classifier.
func New() *Classifier {
	return &Classifier{patterns: make(map[string]*Pattern)}
}

// Len returns the number of installed patterns.
func (cl *Classifier) Len() int { return len(cl.patterns) }

// Add installs a pattern. A pattern with the same name replaces the old
// one. Patterns with no cells are rejected.
func (cl *Classifier) Add(p *Pattern) error {
	if len(p.Cells) == 0 {
		return fmt.Errorf("pathfinder: pattern %q has no cells", p.Name)
	}
	if _, dup := cl.patterns[p.Name]; dup {
		cl.Remove(p.Name)
	}
	cl.patterns[p.Name] = p
	cl.insert(p)
	return nil
}

func (cl *Classifier) insert(p *Pattern) {
	first := p.Cells[0]
	if cl.root == nil {
		cl.root = newNode(first)
	}
	cl.insertAt(&cl.root, p, 0)
}

// insertAt threads the pattern through the DAG starting at cell index i.
func (cl *Classifier) insertAt(slot **node, p *Pattern, i int) {
	c := p.Cells[i]
	n := *slot
	if n == nil {
		n = newNode(c)
		*slot = n
	}
	if n.key != c.key() {
		// Different comparison line: chain into the others list.
		for idx := range n.others {
			if n.others[idx].key == c.key() {
				cl.insertAt(&n.others[idx], p, i)
				return
			}
		}
		alt := newNode(c)
		n.others = append(n.others, alt)
		cl.insertAt(&n.others[len(n.others)-1], p, i)
		return
	}
	vk := string(c.Value)
	if i == len(p.Cells)-1 {
		// Terminal cell: the pattern leaves at the branch target node.
		child, ok := n.branches[vk]
		if !ok {
			child = &node{branches: make(map[string]*node)}
			n.branches[vk] = child
		}
		child.leaves = append(child.leaves, p)
		return
	}
	// A leaf-only child (a shorter pattern ended here) keeps its leaves;
	// the longer pattern's next line chains through the others list.
	childSlot := n.branches[vk]
	cl.insertAt(&childSlot, p, i+1)
	n.branches[vk] = childSlot
}

// Remove uninstalls a pattern by name (rebuilding the DAG; removal is a
// control-plane operation — connection teardown — not the fast path).
func (cl *Classifier) Remove(name string) bool {
	if _, ok := cl.patterns[name]; !ok {
		return false
	}
	delete(cl.patterns, name)
	cl.root = nil
	// Rebuild in name order: insertion order shapes the DAG (which line
	// becomes the trunk, which land in others), so a map-order rebuild
	// would give a run-dependent — though equivalent — structure.
	names := make([]string, 0, len(cl.patterns))
	for n := range cl.patterns {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cl.insert(cl.patterns[n])
	}
	return true
}

// Classify matches a frame against the installed patterns and returns
// the highest-priority match.
func (cl *Classifier) Classify(frame []byte) (*Pattern, bool) {
	var best *Pattern
	cl.walk(cl.root, frame, &best)
	if best != nil {
		cl.Matches++
		return best, true
	}
	cl.Misses++
	return nil, false
}

func (cl *Classifier) walk(n *node, frame []byte, best **Pattern) {
	if n == nil {
		return
	}
	for _, p := range n.leaves {
		if *best == nil || p.Priority > (*best).Priority {
			*best = p
		}
	}
	if n.mask != nil {
		cl.CellsEvaluated++
		if n.offset+len(n.mask) <= len(frame) {
			masked := make([]byte, len(n.mask))
			for i, m := range n.mask {
				masked[i] = frame[n.offset+i] & m
			}
			if child, ok := n.branches[string(masked)]; ok {
				cl.walk(child, frame, best)
			}
		}
	}
	for _, alt := range n.others {
		cl.walk(alt, frame, best)
	}
}

// String renders the DAG for debugging.
func (cl *Classifier) String() string {
	var b strings.Builder
	var dump func(n *node, depth int)
	dump = func(n *node, depth int) {
		if n == nil {
			return
		}
		pad := strings.Repeat("  ", depth)
		if n.mask != nil {
			fmt.Fprintf(&b, "%s[%d/%x]\n", pad, n.offset, n.mask)
		}
		for _, p := range n.leaves {
			fmt.Fprintf(&b, "%s-> %s (prio %d)\n", pad, p.Name, p.Priority)
		}
		vals := make([]string, 0, len(n.branches))
		for v := range n.branches {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		for _, v := range vals {
			fmt.Fprintf(&b, "%s =%x:\n", pad, []byte(v))
			dump(n.branches[v], depth+1)
		}
		for _, alt := range n.others {
			dump(alt, depth)
		}
	}
	dump(cl.root, 0)
	return b.String()
}

// Package lib implements the shared libraries that Escort maps executable
// into every protection domain (§2.3): intrusive doubly-linked lists (the
// Owner structure's tracking lists), a hash table (per-path allowed
// protection-domain crossings), bounded queues, attribute sets, and
// IPv4 address helpers. The paper's message library lives in
// internal/msg; heaps live with the code that needs them.
package lib

// Node is an intrusive list link. Kernel objects embed one Node per list
// they can appear on; membership tests and removal are then O(1) with no
// allocation, which is what makes owner teardown cheap enough for the
// paper's containment argument (Table 2).
type Node struct {
	next, prev *Node
	list       *List
	Value      any
}

// List is an intrusive doubly-linked list with O(1) insert and remove.
// The zero value is an empty list.
type List struct {
	head, tail *Node
	length     int
}

// Len returns the number of linked nodes.
func (l *List) Len() int { return l.length }

// PushBack links n at the tail. Linking an already-linked node panics:
// silently moving an object between owner tracking lists would corrupt
// resource accounting.
func (l *List) PushBack(n *Node) {
	if n.list != nil {
		panic("lib: node already in a list")
	}
	n.list = l
	n.prev = l.tail
	n.next = nil
	if l.tail != nil {
		l.tail.next = n
	} else {
		l.head = n
	}
	l.tail = n
	l.length++
}

// Remove unlinks n. Removing a node that is not on this list is a no-op
// when it is on no list, and panics when it is on a different list.
func (l *List) Remove(n *Node) {
	if n.list == nil {
		return
	}
	if n.list != l {
		panic("lib: node belongs to a different list")
	}
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.next, n.prev, n.list = nil, nil, nil
	l.length--
}

// Front returns the head node, or nil when empty.
func (l *List) Front() *Node { return l.head }

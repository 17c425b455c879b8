// Package msg implements Escort's message library: the user-level
// facility (mapped into every protection domain) for manipulating
// network messages held in pooled byte-slice backings. It provides
// header push/strip without copying via head/tail offsets into a
// backing, slices that share the backing under a reference count, and
// transparent re-allocation when a push or append needs room the
// backing lacks or the backing is shared.
//
// Backings are recycled: a backing whose last reference goes returns to
// a per-size-class pool, charges refunded and owner cleared, and the
// next message of that class reuses it. Descriptors (*Msg) are never
// recycled, so a stale descriptor always hits the freed check.
package msg

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"repro/internal/core"
)

// msgKmem is the kernel-memory charge for one message descriptor.
const msgKmem = 64

// DefaultHeadroom leaves room for the Ethernet+IP+TCP headers to be
// pushed without copying.
const DefaultHeadroom = 128

// backing is the shared storage under one or more messages.
type backing struct {
	data  []byte // resliced to the requested length; charges use len, never cap
	refs  int
	owner *core.Owner // charged for the storage bytes; nil while pooled
}

// Backing storage comes in power-of-two size classes from 1<<minShift
// (256 B) to 1<<maxShift (64 KiB); a larger request gets an exact-size
// backing that is never pooled.
const (
	minShift = 8
	maxShift = 16
)

// pools holds released backings, one pool per size class, as *backing.
var pools [maxShift - minShift + 1]sync.Pool

// poisonReleased makes every released backing fill its whole capacity
// with poisonByte. It is on in test binaries only, so every go test run
// checks that no byte slice is read after the backing under it went
// back to its pool: a late read sees poison and moves a digest instead
// of passing silently.
var poisonReleased = testing.Testing()

const poisonByte = 0xDB

// class returns the size class holding n bytes, or -1 past the largest.
func class(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	if c := bits.Len(uint(n-1)) - minShift; c < len(pools) {
		return c
	}
	return -1
}

// newBacking returns a backing of exactly n bytes with one reference,
// owned (but not yet charged) by owner. A recycled backing holds stale
// bytes: every region a message exposes is written before it is read
// (Append copies in, Push hands out header space to fill).
func newBacking(owner *core.Owner, n int) *backing {
	var b *backing
	size := n
	if c := class(n); c >= 0 {
		b, _ = pools[c].Get().(*backing)
		size = 1 << (c + minShift)
	}
	if b == nil {
		b = &backing{data: make([]byte, size)}
	}
	b.data = b.data[:n]
	b.refs = 1
	b.owner = owner
	return b
}

// NetInfo is per-message network metadata filled in by lower stages as
// they strip headers, so upper stages (TCP checksum verification, the
// passive path learning a SYN's source) can still see the addressing.
type NetInfo struct {
	SrcMAC       uint64
	SrcIP, DstIP uint32
}

// Msg is a network message: a window [head, tail) onto a shared backing.
type Msg struct {
	b     *backing
	head  int
	tail  int
	owner *core.Owner
	freed bool

	// Net carries addressing metadata between stages; slices inherit it.
	Net NetInfo
}

// New allocates a message with the given headroom and payload capacity,
// charged to owner. The payload region starts empty; use Append.
func New(owner *core.Owner, headroom, capacity int) *Msg {
	if headroom < 0 || capacity < 0 {
		panic("msg: negative size")
	}
	b := newBacking(owner, headroom+capacity)
	owner.ChargeKmem(uint64(len(b.data)) + msgKmem)
	return &Msg{b: b, head: headroom, tail: headroom, owner: owner}
}

// FromBytes builds a message holding a copy of data with DefaultHeadroom.
func FromBytes(owner *core.Owner, data []byte) *Msg {
	m := New(owner, DefaultHeadroom, len(data))
	m.Append(data)
	return m
}

// Len returns the message length in bytes.
func (m *Msg) Len() int { return m.tail - m.head }

// Bytes returns the message contents. The slice aliases the backing; it
// is valid until the message is freed (or reallocated by Push or Append)
// and must not be read after that: the backing may already hold another
// message.
func (m *Msg) Bytes() []byte {
	m.check("Bytes")
	return m.b.data[m.head:m.tail]
}

func (m *Msg) check(op string) {
	if m.freed {
		panic(fmt.Sprintf("msg: %s on freed message", op))
	}
}

// Push prepends n bytes of header space and returns the slice to fill
// in. When headroom is insufficient or the backing is shared with
// another reference, the library transparently reallocates.
func (m *Msg) Push(n int) []byte {
	m.check("Push")
	if n < 0 {
		panic("msg: negative push")
	}
	if m.head < n || m.b.refs > 1 {
		m.realloc(n+DefaultHeadroom, 0)
	}
	m.head -= n
	return m.b.data[m.head : m.head+n]
}

// Pop strips n bytes of header and returns them. It panics when the
// message is shorter than n — protocol code must length-check first.
func (m *Msg) Pop(n int) []byte {
	m.check("Pop")
	if n < 0 || n > m.Len() {
		panic(fmt.Sprintf("msg: pop %d from %d-byte message", n, m.Len()))
	}
	h := m.b.data[m.head : m.head+n]
	m.head += n
	return h
}

// Trim drops the message's tail to length n (e.g. removing padding).
func (m *Msg) Trim(n int) {
	m.check("Trim")
	if n < 0 || n > m.Len() {
		panic(fmt.Sprintf("msg: trim %d of %d-byte message", n, m.Len()))
	}
	m.tail = m.head + n
}

// Append adds payload bytes at the tail, reallocating when the tail room
// is insufficient or the backing is shared.
func (m *Msg) Append(p []byte) {
	m.check("Append")
	if m.tail+len(p) > len(m.b.data) || m.b.refs > 1 {
		m.realloc(m.head, len(p)+256)
	}
	copy(m.b.data[m.tail:], p)
	m.tail += len(p)
}

// realloc moves the contents into a fresh backing with the requested
// head and tail slack, releasing the old reference.
func (m *Msg) realloc(headroom, tailroom int) {
	cur := m.Bytes()
	nb := newBacking(m.owner, headroom+len(cur)+tailroom)
	m.owner.ChargeKmem(uint64(len(nb.data)))
	copy(nb.data[headroom:], cur)
	m.releaseBacking()
	m.b = nb
	m.head = headroom
	m.tail = headroom + len(cur)
}

// Slice returns a new message sharing the backing, covering the byte
// range [off, off+n) of this message — the zero-copy path TCP uses to
// segment a response. The slice is charged to chargeTo (the descriptor
// only; the backing stays charged to its allocator).
func (m *Msg) Slice(chargeTo *core.Owner, off, n int) *Msg {
	m.check("Slice")
	if off < 0 || n < 0 || off+n > m.Len() {
		panic(fmt.Sprintf("msg: slice [%d,%d) of %d-byte message", off, off+n, m.Len()))
	}
	m.b.refs++
	chargeTo.ChargeKmem(msgKmem)
	return &Msg{b: m.b, head: m.head + off, tail: m.head + off + n, owner: chargeTo, Net: m.Net}
}

// Dup returns a reference to the whole message (refcount++).
func (m *Msg) Dup(chargeTo *core.Owner) *Msg {
	return m.Slice(chargeTo, 0, m.Len())
}

// Free drops this reference; the backing's bytes are refunded when the
// last reference goes.
func (m *Msg) Free() {
	if m.freed {
		panic("msg: double free")
	}
	m.freed = true
	if !m.owner.Dead() {
		m.owner.RefundKmem(msgKmem)
	}
	m.releaseBacking()
}

// releaseBacking drops this message's reference. The last one refunds
// the storage bytes to the owner charged for them, clears the owner and
// returns the backing to its size class.
func (m *Msg) releaseBacking() {
	b := m.b
	if b.refs <= 0 {
		panic("msg: backing released more often than referenced")
	}
	b.refs--
	if b.refs > 0 {
		return
	}
	if !b.owner.Dead() {
		b.owner.RefundKmem(uint64(len(b.data)))
	}
	b.owner = nil
	full := b.data[:cap(b.data)]
	if poisonReleased {
		for i := range full {
			full[i] = poisonByte
		}
	}
	// Every backing up to the largest class was made at its class size.
	if c := class(len(full)); c >= 0 {
		pools[c].Put(b)
	}
}

package netsim

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
)

// Frame is a raw Ethernet frame (header included in Data).
//
// A frame made by NewFrame holds pooled storage under a reference
// count; a Frame literal holds none, and Retain and Release ignore it.
// Whoever holds a reference drops it exactly once: NIC.Send takes over
// the caller's, each frame in flight on a medium holds one until its
// sink returns, and a hop that transmits a frame again (a switch port,
// the bridge, a fault injector's held or duplicated copy) takes its own
// first. A receiver keeps nothing of Data past its Rx call.
type Frame struct {
	Dst, Src MAC
	Data     []byte

	buf *frameBuf // pooled storage under Data; nil for a literal
}

// MaxFrame is the Ethernet maximum frame size (1500 MTU + 14 header).
const MaxFrame = 1514

// frameBuf is the storage under one pooled frame and its references.
type frameBuf struct {
	data []byte // the whole buffer; a frame's Data is a prefix
	refs int
}

// Frame storage comes in power-of-two size classes from 1<<minShift
// (64 B) to 1<<maxShift (2 KiB, past MaxFrame); a larger request gets
// an exact-size buffer that is never pooled.
const (
	minShift = 6
	maxShift = 11
)

// framePools holds released frame storage, one pool per size class, as
// *frameBuf.
var framePools [maxShift - minShift + 1]sync.Pool

// checkFrames poisons every released buffer with poisonByte and counts
// the pooled frames still referenced (LiveFrames). It is on in test
// binaries only, so a receiver that reads a frame after its last
// release sees poison and moves a digest instead of passing silently.
var checkFrames = testing.Testing()

const poisonByte = 0xDB

var liveFrames atomic.Int64

// frameClass returns the size class holding n bytes, or -1 past the
// largest.
func frameClass(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	if c := bits.Len(uint(n-1)) - minShift; c < len(framePools) {
		return c
	}
	return -1
}

// NewFrame returns a frame from src to dst whose Data holds n bytes of
// pooled storage, with one reference. The bytes are stale (another
// frame's, or poison): the caller writes every one of them.
func NewFrame(dst, src MAC, n int) Frame {
	c := frameClass(n)
	var b *frameBuf
	if c >= 0 {
		b, _ = framePools[c].Get().(*frameBuf)
	}
	if b == nil {
		b = newFrameBuf(c, n)
	}
	b.refs = 1
	if checkFrames {
		liveFrames.Add(1)
	}
	return Frame{Dst: dst, Src: src, Data: b.data[:n], buf: b}
}

// newFrameBuf makes the storage for a pool miss: a whole size class,
// or exactly n bytes past the largest.
//
//escort:coldpath frame pool miss: bounded by the most frames ever live at once
func newFrameBuf(class, n int) *frameBuf {
	if class >= 0 {
		n = 1 << (class + minShift)
	}
	return &frameBuf{data: make([]byte, n)}
}

// Retain takes one more reference to f's storage, for a holder that
// transmits f again or keeps it past the call that handed it over.
func (f Frame) Retain() {
	b := f.buf
	if b == nil {
		return
	}
	if b.refs <= 0 {
		panic("netsim: retain of a released frame")
	}
	b.refs++
}

// Release drops one reference to f's storage. The last one returns the
// storage to its size class. Releasing more often than referenced
// panics.
func (f Frame) Release() {
	b := f.buf
	if b == nil {
		return
	}
	if b.refs <= 0 {
		panic("netsim: frame released more often than referenced")
	}
	b.refs--
	if b.refs > 0 {
		return
	}
	if checkFrames {
		liveFrames.Add(-1)
		for i := range b.data {
			b.data[i] = poisonByte
		}
	}
	if c := frameClass(len(b.data)); c >= 0 {
		framePools[c].Put(b)
	}
}

// LiveFrames returns how many frames from NewFrame still hold a
// reference. It counts in test binaries only and reads 0 elsewhere.
func LiveFrames() int64 { return liveFrames.Load() }

package netsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// pooledFrame returns a pooled frame whose bytes all derive from id, so
// a receiver can tell its own bytes from another frame's or poison.
func pooledFrame(dst, src MAC, id uint32, n int) Frame {
	f := NewFrame(dst, src, n)
	for i := range f.Data {
		f.Data[i] = byte(id)
	}
	binary.LittleEndian.PutUint32(f.Data, id)
	return f
}

// intact reports whether f still holds the bytes pooledFrame wrote.
func intact(f Frame) bool {
	id := binary.LittleEndian.Uint32(f.Data)
	for _, b := range f.Data[4:] {
		if b != byte(id) {
			return false
		}
	}
	return true
}

// TestPooledFramesAllComeBack drives pooled frames through every place
// that holds a reference: hub fan-out, the bridge in both directions,
// switch learning, unicast forwarding and flooding, and the oversize
// drop. Every receiver must see the frame's own bytes, and once the
// engine drains no pooled frame is outstanding.
func TestPooledFramesAllComeBack(t *testing.T) {
	eng := sim.New()
	hub := NewHub(eng, mbps100, 3000)
	sw := NewSwitch(eng, mbps100, 100)
	NewBridge("uplink", hub, sw, 0xFE, 0xFF)
	nics := make([]*NIC, 5) // 0-1 on the hub, 2-4 on the switch
	delivered := 0
	for i := range nics {
		n := NewNIC(fmt.Sprint("st", i), MAC(i+1))
		n.Rx = func(f Frame) {
			if !intact(f) {
				t.Errorf("%s received a frame whose bytes changed in flight: % x", n.Name, f.Data[:8])
			}
			delivered++
		}
		if i < 2 {
			hub.Attach(n)
		} else {
			sw.Attach(n)
		}
		nics[i] = n
	}
	before := LiveFrames()
	sends := []struct {
		from int
		dst  MAC
		size int
	}{
		{0, Broadcast, 60},   // hub fan-out, then flooded by the switch
		{2, 0x99, 200},       // unknown destination: flooded, and across the bridge
		{3, 3, 1514},         // learned unicast on the switch
		{4, 1, 700},          // switch -> bridge -> hub
		{1, 5, 1000},         // hub -> bridge -> switch, learned port
		{0, 2, MaxFrame + 1}, // oversize: dropped at the NIC
	}
	for round := 0; round < 4; round++ {
		for i, s := range sends {
			id := uint32(round*len(sends) + i)
			nics[s.from].Send(pooledFrame(s.dst, MAC(s.from+1), id, s.size))
		}
	}
	eng.Drain(1 << 50)
	if delivered == 0 {
		t.Fatal("no frame was delivered")
	}
	if got := LiveFrames() - before; got != 0 {
		t.Fatalf("%d pooled frames still referenced after the network drained", got)
	}
	if nics[0].TxDropped != 4 {
		t.Fatalf("oversize drops = %d, want 4", nics[0].TxDropped)
	}
}

// TestReleasedFrameIsPoisoned: in a test binary the last release fills
// the storage with poison, so a receiver that kept Data past its Rx
// reads 0xDB bytes, not the old frame.
func TestReleasedFrameIsPoisoned(t *testing.T) {
	f := pooledFrame(1, 2, 7, 100)
	f.Retain()
	kept := f.Data
	f.Release()
	if !intact(f) {
		t.Fatal("a release that was not the last changed the bytes")
	}
	f.Release()
	if !bytes.Equal(kept, bytes.Repeat([]byte{poisonByte}, len(kept))) {
		t.Fatalf("bytes kept past the last release read % x, want poison", kept[:8])
	}
}

// TestFrameReleasedTwicePanics: one Release per reference; a second
// release, or a retain after the last one, is a bug in the holder.
func TestFrameReleasedTwicePanics(t *testing.T) {
	for name, after := range map[string]func(Frame){
		"release": Frame.Release,
		"retain":  Frame.Retain,
	} {
		t.Run(name, func(t *testing.T) {
			f := NewFrame(1, 2, 64)
			f.Release()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after the last release did not panic", name)
				}
			}()
			after(f)
		})
	}
}

// TestLiteralFrameHasNoReferences: a Frame literal owns its Data, so
// Retain and Release leave it and the live count alone.
func TestLiteralFrameHasNoReferences(t *testing.T) {
	before := LiveFrames()
	f := Frame{Dst: 1, Src: 2, Data: []byte{1, 2, 3}}
	f.Release()
	f.Release()
	f.Retain()
	if !bytes.Equal(f.Data, []byte{1, 2, 3}) || LiveFrames() != before {
		t.Fatalf("literal frame changed: data %v, live %d -> %d", f.Data, before, LiveFrames())
	}
}

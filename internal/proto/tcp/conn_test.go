package tcp

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/proto/wire"
)

// TestPushTCPChecksumsMovedPayload sends a payload with no headroom
// that is its backing's only reference: the header push reallocates and
// releases the old backing, which a test binary poisons. The segment's
// checksum must still cover the payload bytes.
func TestPushTCPChecksumsMovedPayload(t *testing.T) {
	const src, dst = 0x0a000001, 0x0a000002
	o := core.NewOwner("p", core.PathOwner)
	payload := []byte("zero headroom payload")
	mm := msg.New(o, 0, len(payload))
	mm.Append(payload)
	pushTCP(mm, wire.TCP{SrcPort: 80, DstPort: 1025, Seq: 7, Ack: 9, Flags: wire.FlagACK | wire.FlagPSH, Window: 8192}, src, dst)
	defer mm.Free()
	h, off, err := wire.ParseTCP(mm.Bytes(), src, dst)
	if err != nil {
		t.Fatalf("segment does not verify: %v", err)
	}
	if h.Seq != 7 || !bytes.Equal(mm.Bytes()[off:], payload) {
		t.Fatalf("parsed seq %d payload %q", h.Seq, mm.Bytes()[off:])
	}
}

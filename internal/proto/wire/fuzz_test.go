package wire

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
)

// FuzzPuzzleSolved drives verification with arbitrary difficulty,
// including the shift counts that used to wrap the mask: before the
// MaxPuzzleBits clamp, bits >= 64 turned 1<<bits-1 into an all-ones
// mask demanding a full zero hash — a puzzle nobody solves and a
// near-infinite SolvePuzzle search. Difficulty must saturate at the
// clamp instead, and zero bits must always admit.
func FuzzPuzzleSolved(f *testing.F) {
	f.Add(uint32(0x0a000101), uint32(99991), uint(12))
	f.Add(uint32(0xc0a80909), uint32(0), uint(0))
	f.Add(uint32(0x0a000101), uint32(4242), uint(MaxPuzzleBits))
	f.Add(uint32(0x0a000101), uint32(4242), uint(63))
	f.Add(uint32(0x0a000101), uint32(4242), uint(64)) // the wrapped-mask regression
	f.Add(uint32(0xffffffff), uint32(0xffffffff), uint(1)<<32)
	f.Fuzz(func(t *testing.T, srcIP, seq uint32, bits uint) {
		got := PuzzleSolved(srcIP, seq, bits)
		if bits == 0 && !got {
			t.Fatal("bits=0 must admit everything (gate disabled)")
		}
		if bits >= MaxPuzzleBits && got != PuzzleSolved(srcIP, seq, MaxPuzzleBits) {
			t.Fatalf("bits=%d does not saturate at the MaxPuzzleBits clamp", bits)
		}
	})
}

// FuzzPuzzleRoundTrip checks solve/verify agreement from arbitrary
// search starting points: whatever SolvePuzzle returns must pass
// PuzzleSolved at the same difficulty. Difficulty is folded into
// [0, 14] to bound the search at ~2^14 hashes per exec; the clamp path
// above MaxPuzzleBits is FuzzPuzzleSolved's job.
func FuzzPuzzleRoundTrip(f *testing.F) {
	f.Add(uint32(0x0a000101), uint32(99991), byte(8))
	f.Add(uint32(0xc0a80909), uint32(0), byte(0))
	f.Add(uint32(0xffffffff), uint32(0xfffffff0), byte(14)) // search wraps the seq space
	f.Fuzz(func(t *testing.T, srcIP, start uint32, rawBits byte) {
		bits := uint(rawBits) % 15
		seq := SolvePuzzle(srcIP, start, bits)
		if !PuzzleSolved(srcIP, seq, bits) {
			t.Fatalf("bits=%d: solved seq %d does not verify", bits, seq)
		}
		if bits == 0 && seq != start {
			t.Fatalf("bits=0: search moved from %d to %d instead of accepting immediately",
				start, seq)
		}
	})
}

// FuzzTCPFrameRoundTrip builds a frame from arbitrary Ethernet, IPv4
// and TCP fields and a payload of up to one MSS, and checks that
// ParsePacket gives back the same headers and payload, and that
// building over a buffer full of poison gives the same bytes as
// building over a fresh one. Frame storage is pooled, so a byte the
// builder does not write would carry another frame's bytes onto the
// wire.
func FuzzTCPFrameRoundTrip(f *testing.F) {
	f.Add(uint64(0x0200_0000_0001), uint64(0x0200_0000_1001), uint16(7), uint32(0x0a000101), uint32(0x0a000001),
		uint16(1025), uint16(80), uint32(1000), uint32(0), byte(FlagSYN), uint16(64000), []byte(nil))
	f.Add(uint64(0xFFFFFFFFFFFF), uint64(0), uint16(0xffff), uint32(0xffffffff), uint32(0),
		uint16(0), uint16(0xffff), uint32(0xffffffff), uint32(0x80000000), byte(0xff), uint16(0), []byte("GET / HTTP/1.0\r\n\r\n"))
	f.Add(uint64(1), uint64(2), uint16(1), uint32(1), uint32(2),
		uint16(80), uint16(1025), uint32(5), uint32(6), byte(FlagACK|FlagPSH), uint16(8192), make([]byte, MSS))
	f.Fuzz(func(t *testing.T, dst, src uint64, id uint16, srcIP, dstIP uint32,
		sport, dport uint16, seq, ack uint32, flags byte, window uint16, payload []byte) {
		if len(payload) > MSS {
			payload = payload[:MSS]
		}
		eth := Eth{Dst: netsim.MAC(dst & 0xFFFFFFFFFFFF), Src: netsim.MAC(src & 0xFFFFFFFFFFFF)}
		ip := IPv4{ID: id, Src: srcIP, Dst: dstIP}
		h := TCP{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Flags: flags, Window: window}

		fresh := make([]byte, tcpHdrs+len(payload))
		putTCPFrame(fresh, eth, ip, h, payload)
		poisoned := bytes.Repeat([]byte{0xDB}, len(fresh))
		putTCPFrame(poisoned, eth, ip, h, payload)
		if !bytes.Equal(fresh, poisoned) {
			t.Fatalf("frame built over poison differs from one built over zeros:\n% x\n% x", poisoned, fresh)
		}
		fr := TCPFrame(eth, ip, h, payload)
		defer fr.Release()
		if fr.Dst != eth.Dst || fr.Src != eth.Src || !bytes.Equal(fr.Data, fresh) {
			t.Fatalf("TCPFrame = %v->%v % x, want %v->%v % x", fr.Src, fr.Dst, fr.Data, eth.Src, eth.Dst, fresh)
		}

		p, err := ParsePacket(fresh)
		if err != nil {
			t.Fatalf("ParsePacket: %v", err)
		}
		eth.EtherType = EtherTypeIPv4
		ip.TotalLen, ip.TTL, ip.Proto = uint16(IPv4Len+TCPLen+len(payload)), 64, ProtoTCP
		if p.Eth != eth || p.IP != ip || p.TCP != h || !bytes.Equal(p.Payload, payload) {
			t.Fatalf("round trip = %+v %+v %+v %q, want %+v %+v %+v %q",
				p.Eth, p.IP, p.TCP, p.Payload, eth, ip, h, payload)
		}
	})
}

package wire

import (
	"testing"
	"testing/quick"

	"repro/internal/netsim"
)

func TestEthRoundTrip(t *testing.T) {
	var b [EthLen]byte
	h := Eth{Dst: 0x0A0B0C0D0E0F, Src: 0x010203040506, EtherType: EtherTypeIPv4}
	PutEth(b[:], h)
	got, err := ParseEth(b[:])
	if err != nil || got != h {
		t.Fatalf("round trip: %+v err=%v", got, err)
	}
	if _, err := ParseEth(b[:10]); err == nil {
		t.Fatal("short frame parsed")
	}
}

func TestARPRoundTrip(t *testing.T) {
	var b [ARPLen]byte
	a := ARP{Op: ARPRequest, SenderMAC: 0x111111111111, SenderIP: 0x0A000001,
		TargetMAC: 0, TargetIP: 0x0A000002}
	PutARP(b[:], a)
	got, err := ParseARP(b[:])
	if err != nil || got != a {
		t.Fatalf("round trip: %+v err=%v", got, err)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	var b [IPv4Len]byte
	h := IPv4{TotalLen: 52, ID: 7, TTL: 64, Proto: ProtoTCP,
		Src: 0x0A000001, Dst: 0xC0A80909}
	PutIPv4(b[:], h)
	got, err := ParseIPv4(b[:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != h.Src || got.Dst != h.Dst || got.TotalLen != h.TotalLen || got.Proto != h.Proto {
		t.Fatalf("round trip: %+v", got)
	}
	b[15] ^= 0xFF // corrupt
	if _, err := ParseIPv4(b[:]); err == nil {
		t.Fatal("corrupted header parsed")
	}
}

func TestTCPRoundTripAndChecksum(t *testing.T) {
	payload := []byte("GET / HTTP/1.0\r\n\r\n")
	buf := make([]byte, TCPLen+len(payload))
	copy(buf[TCPLen:], payload)
	h := TCP{SrcPort: 5000, DstPort: 80, Seq: 1000, Ack: 2000,
		Flags: FlagACK | FlagPSH, Window: 8192}
	src, dst := uint32(0x0A000002), uint32(0x0A000001)
	PutTCP(buf[:TCPLen], h, src, dst, payload)
	got, off, err := ParseTCP(buf, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if off != TCPLen || got != h {
		t.Fatalf("round trip: %+v off=%d", got, off)
	}
	buf[TCPLen] ^= 0xFF // corrupt payload
	if _, _, err := ParseTCP(buf, src, dst); err == nil {
		t.Fatal("corrupted payload passed checksum")
	}
}

func TestTCPChecksumCoversPseudoHeader(t *testing.T) {
	var buf [TCPLen]byte
	h := TCP{SrcPort: 1, DstPort: 2, Flags: FlagSYN}
	PutTCP(buf[:], h, 0x0A000001, 0x0A000002, nil)
	// Parsing against a different endpoint must fail: the pseudo-header
	// binds the segment to its IP endpoints. (Swapping src and dst would
	// pass — one's-complement addition is commutative — as on real TCP.)
	if _, _, err := ParseTCP(buf[:], 0x0A000001, 0x0A0000FF); err == nil {
		t.Fatal("checksum ignored pseudo-header")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2, cksum 0x220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != 0x220d {
		t.Fatalf("checksum = %#x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xFF}) != ^uint16(0xFF00) {
		t.Fatal("odd-length checksum wrong")
	}
}

func TestSeqCompare(t *testing.T) {
	if !SeqLT(1, 2) || SeqLT(2, 1) {
		t.Fatal("basic compare")
	}
	if !SeqLT(0xFFFFFFF0, 5) {
		t.Fatal("wraparound compare")
	}
	if !SeqLEQ(7, 7) {
		t.Fatal("LEQ reflexivity")
	}
}

// Property: any encoded TCP header parses back identically with a valid
// checksum, for arbitrary field values and payloads.
func TestTCPEncodeParseProperty(t *testing.T) {
	f := func(srcPort, dstPort uint16, seq, ack uint32, flags byte, window uint16, payload []byte) bool {
		h := TCP{SrcPort: srcPort, DstPort: dstPort, Seq: seq, Ack: ack,
			Flags: flags & 0x1F, Window: window}
		buf := make([]byte, TCPLen+len(payload))
		copy(buf[TCPLen:], payload)
		src, dst := uint32(0x0A000001), uint32(0x0A000063)
		PutTCP(buf[:TCPLen], h, src, dst, payload)
		got, off, err := ParseTCP(buf, src, dst)
		return err == nil && off == TCPLen && got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: IPv4 headers round-trip and always verify.
func TestIPv4EncodeParseProperty(t *testing.T) {
	f := func(totalLen, id uint16, ttl byte, src, dst uint32) bool {
		h := IPv4{TotalLen: totalLen, ID: id, TTL: ttl, Proto: ProtoTCP, Src: src, Dst: dst}
		var b [IPv4Len]byte
		PutIPv4(b[:], h)
		got, err := ParseIPv4(b[:])
		return err == nil && got.Src == src && got.Dst == dst &&
			got.TotalLen == totalLen && got.ID == id && got.TTL == ttl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

var _ = netsim.MAC(0)

// TestFrameBuildParse round-trips the simulated hosts' frames: a TCP
// frame (with Ethernet padding past the IPv4 total length) and an ARP
// answer come back through ParsePacket as built, and a frame that is
// neither ARP nor TCP is refused.
func TestFrameBuildParse(t *testing.T) {
	eth := Eth{Dst: 0x0A0B0C0D0E0F, Src: 0x010203040506}
	ip := IPv4{ID: 9, Src: 0xC0A80101, Dst: 0x0A000001}
	h := TCP{SrcPort: 5000, DstPort: 80, Seq: 1, Ack: 2, Flags: FlagACK | FlagPSH, Window: 64000}
	f := TCPFrame(eth, ip, h, []byte("hello"))
	if f.Dst != eth.Dst || f.Src != eth.Src {
		t.Fatalf("frame addressed %v -> %v", f.Src, f.Dst)
	}
	p, err := ParsePacket(append(f.Data, 0, 0, 0)) // padding
	if err != nil {
		t.Fatal(err)
	}
	if p.Eth.EtherType != EtherTypeIPv4 || p.IP.ID != 9 || p.IP.TTL != 64 || p.IP.Src != ip.Src ||
		p.TCP != h || string(p.Payload) != "hello" {
		t.Fatalf("parsed %+v", p)
	}

	req := ARP{Op: ARPRequest, SenderMAC: 0x111111111111, SenderIP: 0x0A000002, TargetIP: 0x0A000001}
	p, err = ParsePacket(AnswerARP(req, 0x222222222222).Data)
	want := ARP{Op: ARPReply, SenderMAC: 0x222222222222, SenderIP: 0x0A000001,
		TargetMAC: 0x111111111111, TargetIP: 0x0A000002}
	if err != nil || p.Eth.Dst != req.SenderMAC || p.ARP != want {
		t.Fatalf("ARP answer %+v err=%v", p, err)
	}

	other := make([]byte, EthLen+IPv4Len)
	PutEth(other, Eth{EtherType: 0x86DD})
	if _, err := ParsePacket(other); err == nil {
		t.Fatal("non-IPv4, non-ARP frame parsed")
	}
}

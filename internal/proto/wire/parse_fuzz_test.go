package wire

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
)

// The parse fuzz targets feed arbitrary bytes to each parser. A parser
// must never panic, and a header it accepts must survive being
// re-encoded by its Put function and parsed again unchanged.

// seedFrames adds a valid TCP frame, a valid ARP frame, their headers'
// truncations and some garbage, at offset off into each frame.
func seedFrames(f *testing.F, off int) {
	tcp := TCPFrame(Eth{Dst: 0x0200_0000_0001, Src: 0x0200_0000_1001},
		IPv4{ID: 7, Src: 0x0a000101, Dst: 0x0a000001},
		TCP{SrcPort: 1025, DstPort: 80, Seq: 1000, Ack: 1, Flags: FlagACK | FlagPSH, Window: 8192},
		[]byte("GET / HTTP/1.0\r\n\r\n"))
	arp := ARPFrame(0xFFFFFFFFFFFF, ARP{Op: ARPRequest, SenderMAC: 0x77, SenderIP: 0x0a000708, TargetIP: 0x0a000001})
	for _, fr := range []netsim.Frame{tcp, arp} {
		b := append([]byte(nil), fr.Data...)
		fr.Release()
		if off <= len(b) {
			f.Add(b[off:])
			f.Add(b[off : off+(len(b)-off)/2])
		}
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xDB}, 64))
}

func FuzzParseEth(f *testing.F) {
	seedFrames(f, 0)
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := ParseEth(b)
		if err != nil {
			return
		}
		buf := make([]byte, EthLen)
		PutEth(buf, h)
		if !bytes.Equal(buf, b[:EthLen]) {
			t.Fatalf("PutEth(%+v) = % x, parsed from % x", h, buf, b[:EthLen])
		}
		if h2, err := ParseEth(buf); err != nil || h2 != h {
			t.Fatalf("reparse = %+v, %v, want %+v", h2, err, h)
		}
	})
}

func FuzzParseARP(f *testing.F) {
	seedFrames(f, EthLen)
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := ParseARP(b)
		if err != nil {
			return
		}
		buf := make([]byte, ARPLen)
		PutARP(buf, a)
		if a2, err := ParseARP(buf); err != nil || a2 != a {
			t.Fatalf("reparse = %+v, %v, want %+v", a2, err, a)
		}
	})
}

func FuzzParseIPv4(f *testing.F) {
	seedFrames(f, EthLen)
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := ParseIPv4(b)
		if err != nil {
			return
		}
		buf := make([]byte, IPv4Len)
		PutIPv4(buf, h)
		if h2, err := ParseIPv4(buf); err != nil || h2 != h {
			t.Fatalf("reparse = %+v, %v, want %+v", h2, err, h)
		}
	})
}

func FuzzParseTCP(f *testing.F) {
	// A TCP header's checksum covers the IPv4 pseudo-header, so the
	// seeds carry the addresses the seed frames were built with.
	f.Add(bytes.Repeat([]byte{0}, TCPLen), uint32(0x0a000101), uint32(0x0a000001))
	fr := TCPFrame(Eth{}, IPv4{Src: 0x0a000101, Dst: 0x0a000001},
		TCP{SrcPort: 80, DstPort: 1025, Seq: 5, Ack: 6, Flags: FlagSYN | FlagACK, Window: 64000}, []byte("x"))
	f.Add(append([]byte(nil), fr.Data[EthLen+IPv4Len:]...), uint32(0x0a000101), uint32(0x0a000001))
	fr.Release()
	f.Fuzz(func(t *testing.T, b []byte, srcIP, dstIP uint32) {
		h, off, err := ParseTCP(b, srcIP, dstIP)
		if err != nil {
			return
		}
		if off < TCPLen || off > len(b) {
			t.Fatalf("data offset %d outside [%d, %d]", off, TCPLen, len(b))
		}
		payload := b[off:]
		buf := make([]byte, TCPLen+len(payload))
		copy(buf[TCPLen:], payload)
		PutTCP(buf[:TCPLen], h, srcIP, dstIP, payload)
		h2, off2, err := ParseTCP(buf, srcIP, dstIP)
		if err != nil || h2 != h || off2 != TCPLen {
			t.Fatalf("reparse = %+v at %d, %v, want %+v at %d", h2, off2, err, h, TCPLen)
		}
	})
}

func FuzzParsePacket(f *testing.F) {
	seedFrames(f, 0)
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := ParsePacket(b)
		if err != nil {
			return
		}
		var buf []byte
		want := p
		switch p.Eth.EtherType {
		case EtherTypeARP:
			buf = make([]byte, EthLen+ARPLen)
			PutARP(buf[EthLen:], p.ARP)
		case EtherTypeIPv4:
			// The rebuilt frame has no TCP options or padding, so its
			// total length is the headers' and the payload's.
			want.IP.TotalLen = uint16(IPv4Len + TCPLen + len(p.Payload))
			buf = make([]byte, tcpHdrs+len(p.Payload))
			copy(buf[tcpHdrs:], p.Payload)
			PutIPv4(buf[EthLen:], want.IP)
			PutTCP(buf[EthLen+IPv4Len:tcpHdrs], p.TCP, p.IP.Src, p.IP.Dst, p.Payload)
		default:
			t.Fatalf("accepted EtherType %#x", p.Eth.EtherType)
		}
		PutEth(buf, p.Eth)
		p2, err := ParsePacket(buf)
		if err != nil || p2.Eth != want.Eth || p2.ARP != want.ARP || p2.IP != want.IP ||
			p2.TCP != want.TCP || !bytes.Equal(p2.Payload, want.Payload) {
			t.Fatalf("reparse = %+v, %v, want %+v", p2, err, want)
		}
	})
}

// FuzzARPFrameRoundTrip builds an ARP frame from arbitrary fields and
// checks that ParsePacket gives back the same headers, and that
// AnswerARP's reply swaps the addresses.
func FuzzARPFrameRoundTrip(f *testing.F) {
	f.Add(uint64(0xFFFFFFFFFFFF), uint16(ARPRequest), uint64(0x77), uint32(0x0a000708), uint64(0), uint32(0x0a000001))
	f.Add(uint64(0x77), uint16(ARPReply), uint64(0x0200_0000_0001), uint32(0x0a000001), uint64(0x77), uint32(0x0a000708))
	f.Add(uint64(0), uint16(0xffff), uint64(0xFFFFFFFFFFFFFFFF), uint32(0xffffffff), uint64(1), uint32(0))
	f.Fuzz(func(t *testing.T, dst uint64, op uint16, sMAC uint64, sIP uint32, tMAC uint64, tIP uint32) {
		const macMask = 0xFFFFFFFFFFFF
		a := ARP{Op: op, SenderMAC: netsim.MAC(sMAC & macMask), SenderIP: sIP,
			TargetMAC: netsim.MAC(tMAC & macMask), TargetIP: tIP}
		to := netsim.MAC(dst & macMask)
		fr := ARPFrame(to, a)
		defer fr.Release()
		p, err := ParsePacket(fr.Data)
		if err != nil {
			t.Fatalf("ParsePacket: %v", err)
		}
		eth := Eth{Dst: to, Src: a.SenderMAC, EtherType: EtherTypeARP}
		if fr.Dst != to || fr.Src != a.SenderMAC || p.Eth != eth || p.ARP != a {
			t.Fatalf("round trip = %v->%v %+v %+v, want %v->%v %+v %+v",
				fr.Src, fr.Dst, p.Eth, p.ARP, a.SenderMAC, to, eth, a)
		}
		const mine = netsim.MAC(0x0200_0000_0042)
		reply := AnswerARP(a, mine)
		defer reply.Release()
		r, err := ParsePacket(reply.Data)
		want := ARP{Op: ARPReply, SenderMAC: mine, SenderIP: a.TargetIP, TargetMAC: a.SenderMAC, TargetIP: a.SenderIP}
		if err != nil || r.ARP != want || reply.Dst != a.SenderMAC {
			t.Fatalf("reply = %+v to %v, %v, want %+v to %v", r.ARP, reply.Dst, err, want, a.SenderMAC)
		}
	})
}

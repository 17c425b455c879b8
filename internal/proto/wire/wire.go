// Package wire defines the on-the-wire formats the protocol modules
// exchange: Ethernet II, a minimal ARP, IPv4, and TCP, with the real
// Internet checksum. The simulated clients and the Escort server encode
// and decode actual bytes, so the demultiplexing and header processing
// paths do genuine work.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/netsim"
)

// Header lengths.
const (
	EthLen  = 14
	ARPLen  = 28
	IPv4Len = 20
	TCPLen  = 20
)

// EtherTypes.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeARP  = 0x0806
)

// IP protocol numbers.
const (
	ProtoTCP = 6
)

// MSS is the TCP maximum segment size on Ethernet: 1500 - 20 - 20.
const MSS = 1460

// Eth is an Ethernet II header.
type Eth struct {
	Dst, Src  netsim.MAC
	EtherType uint16
}

// PutEth encodes the header into b[0:14].
func PutEth(b []byte, h Eth) {
	putMAC(b[0:6], h.Dst)
	putMAC(b[6:12], h.Src)
	binary.BigEndian.PutUint16(b[12:14], h.EtherType)
}

// ParseEth decodes an Ethernet header.
func ParseEth(b []byte) (Eth, error) {
	if len(b) < EthLen {
		return Eth{}, fmt.Errorf("wire: short ethernet frame (%d bytes)", len(b))
	}
	return Eth{
		Dst:       getMAC(b[0:6]),
		Src:       getMAC(b[6:12]),
		EtherType: binary.BigEndian.Uint16(b[12:14]),
	}, nil
}

func putMAC(b []byte, m netsim.MAC) {
	b[0] = byte(m >> 40)
	b[1] = byte(m >> 32)
	b[2] = byte(m >> 24)
	b[3] = byte(m >> 16)
	b[4] = byte(m >> 8)
	b[5] = byte(m)
}

func getMAC(b []byte) netsim.MAC {
	return netsim.MAC(b[0])<<40 | netsim.MAC(b[1])<<32 | netsim.MAC(b[2])<<24 |
		netsim.MAC(b[3])<<16 | netsim.MAC(b[4])<<8 | netsim.MAC(b[5])
}

// ARP operations.
const (
	ARPRequest = 1
	ARPReply   = 2
)

// ARP is a (hardware=Ethernet, protocol=IPv4) ARP packet.
type ARP struct {
	Op        uint16
	SenderMAC netsim.MAC
	SenderIP  uint32
	TargetMAC netsim.MAC
	TargetIP  uint32
}

// PutARP encodes the packet into b[0:28].
func PutARP(b []byte, a ARP) {
	binary.BigEndian.PutUint16(b[0:2], 1)      // hardware: ethernet
	binary.BigEndian.PutUint16(b[2:4], 0x0800) // protocol: IPv4
	b[4], b[5] = 6, 4
	binary.BigEndian.PutUint16(b[6:8], a.Op)
	putMAC(b[8:14], a.SenderMAC)
	binary.BigEndian.PutUint32(b[14:18], a.SenderIP)
	putMAC(b[18:24], a.TargetMAC)
	binary.BigEndian.PutUint32(b[24:28], a.TargetIP)
}

// ParseARP decodes an ARP packet.
func ParseARP(b []byte) (ARP, error) {
	if len(b) < ARPLen {
		return ARP{}, fmt.Errorf("wire: short ARP packet (%d bytes)", len(b))
	}
	return ARP{
		Op:        binary.BigEndian.Uint16(b[6:8]),
		SenderMAC: getMAC(b[8:14]),
		SenderIP:  binary.BigEndian.Uint32(b[14:18]),
		TargetMAC: getMAC(b[18:24]),
		TargetIP:  binary.BigEndian.Uint32(b[24:28]),
	}, nil
}

// IPv4 is an IPv4 header (no options).
type IPv4 struct {
	TotalLen uint16
	ID       uint16
	TTL      byte
	Proto    byte
	Src, Dst uint32
}

// PutIPv4 encodes the header into b[0:20], computing the checksum.
func PutIPv4(b []byte, h IPv4) {
	b[0] = 0x45 // version 4, IHL 5
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], 0) // no fragmentation
	b[8] = h.TTL
	b[9] = h.Proto
	binary.BigEndian.PutUint16(b[10:12], 0) // checksum placeholder
	binary.BigEndian.PutUint32(b[12:16], h.Src)
	binary.BigEndian.PutUint32(b[16:20], h.Dst)
	binary.BigEndian.PutUint16(b[10:12], Checksum(b[0:IPv4Len]))
}

// ParseIPv4 decodes and checksum-verifies an IPv4 header.
func ParseIPv4(b []byte) (IPv4, error) {
	if len(b) < IPv4Len {
		return IPv4{}, fmt.Errorf("wire: short IPv4 header (%d bytes)", len(b))
	}
	if b[0] != 0x45 {
		return IPv4{}, fmt.Errorf("wire: unsupported IPv4 version/IHL %#x", b[0])
	}
	if Checksum(b[0:IPv4Len]) != 0 {
		return IPv4{}, fmt.Errorf("wire: IPv4 header checksum mismatch")
	}
	return IPv4{
		TotalLen: binary.BigEndian.Uint16(b[2:4]),
		ID:       binary.BigEndian.Uint16(b[4:6]),
		TTL:      b[8],
		Proto:    b[9],
		Src:      binary.BigEndian.Uint32(b[12:16]),
		Dst:      binary.BigEndian.Uint32(b[16:20]),
	}, nil
}

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
)

// TCP is a TCP header (no options).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            byte
	Window           uint16
}

// PutTCP encodes the header into b[0:20] and computes the checksum over
// header+payload with the IPv4 pseudo-header.
func PutTCP(b []byte, h TCP, srcIP, dstIP uint32, payload []byte) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	b[12] = 5 << 4 // data offset: 5 words
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:16], h.Window)
	binary.BigEndian.PutUint16(b[16:18], 0) // checksum placeholder
	binary.BigEndian.PutUint16(b[18:20], 0) // urgent
	binary.BigEndian.PutUint16(b[16:18], tcpChecksum(b[0:TCPLen], srcIP, dstIP, payload))
}

// ParseTCP decodes a TCP header and verifies the checksum over
// header+payload.
func ParseTCP(b []byte, srcIP, dstIP uint32) (TCP, int, error) {
	if len(b) < TCPLen {
		return TCP{}, 0, fmt.Errorf("wire: short TCP header (%d bytes)", len(b))
	}
	dataOff := int(b[12]>>4) * 4
	if dataOff < TCPLen || dataOff > len(b) {
		return TCP{}, 0, fmt.Errorf("wire: bad TCP data offset %d", dataOff)
	}
	if tcpChecksum(b[0:dataOff], srcIP, dstIP, b[dataOff:]) != 0 {
		return TCP{}, 0, fmt.Errorf("wire: TCP checksum mismatch")
	}
	return TCP{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Ack:     binary.BigEndian.Uint32(b[8:12]),
		Flags:   b[13],
		Window:  binary.BigEndian.Uint16(b[14:16]),
	}, dataOff, nil
}

// ARPFrame builds the frame carrying a from a.SenderMAC to dst, in
// pooled storage with one reference (netsim.NewFrame).
func ARPFrame(dst netsim.MAC, a ARP) netsim.Frame {
	f := netsim.NewFrame(dst, a.SenderMAC, EthLen+ARPLen)
	PutEth(f.Data, Eth{Dst: dst, Src: a.SenderMAC, EtherType: EtherTypeARP})
	PutARP(f.Data[EthLen:], a)
	return f
}

// AnswerARP builds the reply to req from the host at mac that owns
// req.TargetIP.
func AnswerARP(req ARP, mac netsim.MAC) netsim.Frame {
	return ARPFrame(req.SenderMAC, ARP{
		Op: ARPReply, SenderMAC: mac, SenderIP: req.TargetIP,
		TargetMAC: req.SenderMAC, TargetIP: req.SenderIP,
	})
}

// TCPFrame builds an Ethernet+IPv4+TCP frame carrying payload between
// the addresses of eth and ip, in pooled storage with one reference
// (netsim.NewFrame); the other header fields but ip.ID are filled in
// here.
func TCPFrame(eth Eth, ip IPv4, h TCP, payload []byte) netsim.Frame {
	f := netsim.NewFrame(eth.Dst, eth.Src, tcpHdrs+len(payload))
	putTCPFrame(f.Data, eth, ip, h, payload)
	return f
}

// tcpHdrs is the length of a TCP frame's headers.
const tcpHdrs = EthLen + IPv4Len + TCPLen

// putTCPFrame writes TCPFrame's frame into buf, which holds exactly
// tcpHdrs+len(payload) bytes. It writes every one of them: pooled
// storage holds another frame's bytes.
func putTCPFrame(buf []byte, eth Eth, ip IPv4, h TCP, payload []byte) {
	copy(buf[tcpHdrs:], payload)
	eth.EtherType = EtherTypeIPv4
	PutEth(buf, eth)
	ip.TotalLen, ip.TTL, ip.Proto = uint16(IPv4Len+TCPLen+len(payload)), 64, ProtoTCP
	PutIPv4(buf[EthLen:], ip)
	PutTCP(buf[EthLen+IPv4Len:tcpHdrs], h, ip.Src, ip.Dst, buf[tcpHdrs:])
}

// Packet is a decoded frame: its Ethernet header, then the ARP packet
// or the IPv4 and TCP headers and TCP payload, as Eth.EtherType says.
type Packet struct {
	Eth     Eth
	ARP     ARP
	IP      IPv4
	TCP     TCP
	Payload []byte
}

var errNotTCP = errors.New("wire: neither ARP nor TCP over IPv4")

// ParsePacket decodes an ARP or a TCP frame, verifying the checksums
// and trimming Ethernet padding by the IPv4 total length. Payload
// aliases b.
func ParsePacket(b []byte) (p Packet, err error) {
	if p.Eth, err = ParseEth(b); err != nil {
		return p, err
	}
	b = b[EthLen:]
	switch p.Eth.EtherType {
	case EtherTypeARP:
		p.ARP, err = ParseARP(b)
		return p, err
	case EtherTypeIPv4:
		if p.IP, err = ParseIPv4(b); err != nil {
			return p, err
		}
	}
	if p.Eth.EtherType != EtherTypeIPv4 || p.IP.Proto != ProtoTCP {
		return p, errNotTCP
	}
	if n := int(p.IP.TotalLen); n >= IPv4Len && n <= len(b) {
		b = b[:n]
	}
	var off int
	if p.TCP, off, err = ParseTCP(b[IPv4Len:], p.IP.Src, p.IP.Dst); err != nil {
		return p, err
	}
	p.Payload = b[IPv4Len+off:]
	return p, nil
}

// Checksum is the Internet checksum (RFC 1071) of b.
func Checksum(b []byte) uint16 {
	return finish(sum(b, 0))
}

func tcpChecksum(hdr []byte, srcIP, dstIP uint32, payload []byte) uint16 {
	var pseudo [12]byte
	binary.BigEndian.PutUint32(pseudo[0:4], srcIP)
	binary.BigEndian.PutUint32(pseudo[4:8], dstIP)
	pseudo[9] = ProtoTCP
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(hdr)+len(payload)))
	s := sum(pseudo[:], 0)
	s = sum(hdr, s)
	s = sum(payload, s)
	return finish(s)
}

func sum(b []byte, acc uint32) uint32 {
	n := len(b)
	for i := 0; i+1 < n; i += 2 {
		acc += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if n%2 == 1 {
		acc += uint32(b[n-1]) << 8
	}
	return acc
}

func finish(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = (acc & 0xFFFF) + acc>>16
	}
	return ^uint16(acc)
}

// SeqLT/SeqLEQ compare TCP sequence numbers with wraparound.
func SeqLT(a, b uint32) bool { return int32(a-b) < 0 }

// SeqLEQ reports a <= b in sequence space.
func SeqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

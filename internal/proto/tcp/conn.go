package tcp

import (
	"repro/internal/kernel"
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/proto/wire"
	"repro/internal/sim"
)

// conn is the server-side TCP control block. It is itself the active
// path's TCP stage (path-local state — a stage in the paper's terms)
// and the path's kill hook.
type conn struct {
	m    *Module
	path module.PathRef
	h    module.StageHandle

	stageIdx int
	key      uint64
	state    int

	localIP, remoteIP     uint32
	localPort, remotePort uint16

	rcvNxt uint32

	iss    uint32
	sndUna uint32
	sndNxt uint32

	cwnd     int
	ssthresh int
	peerWnd  int

	// sendBuf holds the (unsent + unacknowledged) response bytes;
	// sndBase is the sequence number of its first byte.
	sendBuf *msg.Msg
	sndBase uint32

	// wantFin: our FIN follows the response's last byte (its progress
	// is the state). peerFin: the peer's FIN has arrived in order.
	wantFin   bool
	peerFin   bool
	streaming bool

	rtoAt      sim.Cycles
	rto        sim.Cycles // current timeout, doubled per loss (Karn-style backoff)
	synRecvdAt sim.Cycles
	// ackedAt is when the peer last acknowledged something new (or the
	// connection was born or began owing it): PeerTimeout runs from it.
	ackedAt  sim.Cycles
	listener *Listener // holds a SYN_RECVD slot exactly while in SYN_RCVD

	// bytesIn/bytesOut count in-order payload through the connection;
	// the session reaper judges cycles-per-byte asymmetry on them.
	bytesIn  uint64
	bytesOut uint64
}

// Deliver implements module.Stage. Upward: run the state machine and
// forward in-order payload to HTTP. Downward: accept response data from
// HTTP into the send buffer and pump segments within the window.
func (c *conn) Deliver(ctx *kernel.Ctx, dir module.Direction, mm *msg.Msg) (bool, error) {
	model := c.m.k.Model()
	if dir == module.Down {
		// Response data from HTTP: per-byte work is charged at
		// segmentation (checksum) and transmission (wire copy).
		ctx.Use(model.PktPerModule)
		c.queueResponse(ctx, mm)
		return false, nil
	}
	// Inbound segment: header processing plus checksum over the bytes.
	ctx.Use(model.PktPerModule + sim.Cycles(mm.Len())*model.PerByte)
	return c.input(ctx, mm)
}

// Destroy implements module.Stage: the destructor releases the
// connection's module-level state (conn-table entry, SYN_RECVD slot) —
// the resources the paper says destructors return to the domain.
func (c *conn) Destroy(*kernel.Ctx) {
	c.release()
}

// PathKilled implements module.KillHook: the path was killed, or its
// create failed after the TCB was made.
func (c *conn) PathKilled() { c.m.reapKilled(c) }

// input processes one inbound segment.
func (c *conn) input(ctx *kernel.Ctx, mm *msg.Msg) (bool, error) {
	h, dataOff, err := wire.ParseTCP(mm.Bytes(), mm.Net.SrcIP, mm.Net.DstIP)
	if err != nil {
		return false, err
	}
	if c.state == StateClosed {
		return false, nil
	}

	// Duplicate SYN: the SYN-ACK was lost; resend it.
	if h.Flags&wire.FlagSYN != 0 && h.Flags&wire.FlagACK == 0 {
		c.sendSynAck(ctx)
		return false, nil
	}
	// SYN-RECEIVED takes only a segment whose ACK covers our SYN-ACK,
	// with whatever it carries; anything else is dropped (RFC 793).
	if c.state == StateSynRcvd && (h.Flags&wire.FlagACK == 0 || !c.acceptable(h.Ack)) {
		return false, nil
	}

	c.peerWnd = int(h.Window)
	if h.Flags&wire.FlagACK != 0 {
		c.handleAck(ctx, h.Ack)
	}

	payloadLen := mm.Len() - dataOff
	forward := false
	if payloadLen > 0 {
		if h.Seq == c.rcvNxt {
			c.rcvNxt += uint32(payloadLen)
			c.bytesIn += uint64(payloadLen)
			mm.Pop(dataOff)
			forward = true
		}
		// In order or not, acknowledge what we have.
		c.sendAck(ctx)
	}

	if h.Flags&wire.FlagFIN != 0 && h.Seq+uint32(payloadLen) == c.rcvNxt {
		c.rcvNxt++
		c.peerFin = true
		c.sendAck(ctx)
	}
	// Both sides have closed once the peer's FIN is in and ours is
	// acknowledged, in whichever order the two arrived.
	if c.peerFin && c.state == StateFinWait2 {
		c.finish(ctx)
	}
	return forward, nil
}

// acceptable reports whether ack acknowledges something sent and not
// yet acknowledged.
func (c *conn) acceptable(ack uint32) bool {
	return wire.SeqLT(c.sndUna, ack) && wire.SeqLEQ(ack, c.sndNxt)
}

// handleAck advances the send state: SYN-ACK acknowledgment establishes
// the connection, data acknowledgment opens the congestion window and
// pumps more segments, FIN acknowledgment moves to FIN_WAIT_2.
func (c *conn) handleAck(ctx *kernel.Ctx, ack uint32) {
	if !c.acceptable(ack) {
		return // old or absurd ACK
	}
	c.sndUna = ack
	c.ackedAt = ctx.Now()
	if c.state == StateSynRcvd {
		c.state = StateEstablished
		c.sndBase = c.sndUna
		c.m.Established++
		c.releaseSlot()
		return
	}
	c.rto = c.m.RTO // progress: reset the backoff
	// Congestion window growth: slow start, then congestion avoidance.
	if c.cwnd < c.ssthresh {
		c.cwnd += wire.MSS
	} else {
		c.cwnd += wire.MSS * wire.MSS / c.cwnd
	}
	if c.cwnd > maxWindow {
		c.cwnd = maxWindow
	}
	if c.state == StateFinWait1 && ack == c.sndNxt {
		c.state = StateFinWait2
	}
	c.compact()
	c.pump(ctx)
}

// compact drops fully-acknowledged bytes from the front of the send
// buffer so long-lived streams do not accumulate memory.
func (c *conn) compact() {
	if c.sendBuf == nil {
		return
	}
	acked := int(c.sndUna - c.sndBase)
	if acked < 32*1024 {
		return
	}
	rest := c.sendBuf.Len() - acked
	nb := msg.New(c.path.PathOwner(), msg.DefaultHeadroom, rest)
	if rest > 0 {
		nb.Append(c.sendBuf.Bytes()[acked:])
	}
	c.sendBuf.Free()
	c.sendBuf = nb
	c.sndBase = c.sndUna
}

// queueResponse accepts response bytes from HTTP; the server closes
// after the response (HTTP/1.0), so the FIN follows the last byte.
func (c *conn) queueResponse(ctx *kernel.Ctx, mm *msg.Msg) {
	if !c.waiting() {
		c.ackedAt = ctx.Now() // the connection starts owing the peer
	}
	if c.sendBuf == nil {
		c.sendBuf = mm.Dup(c.path.PathOwner())
		c.sndBase = c.sndNxt
	} else {
		c.sendBuf.Append(mm.Bytes())
	}
	if !c.streaming {
		c.wantFin = true
	}
	c.pump(ctx)
}

// waiting reports whether the connection waits on its peer: half-open,
// closing (our FIN sent), or holding response bytes or a FIN the peer
// has not acknowledged. An established connection that owes nothing
// is idle, not waiting.
func (c *conn) waiting() bool {
	switch c.state {
	case StateSynRcvd, StateFinWait1, StateFinWait2:
		return true
	case StateEstablished:
		return c.wantFin || c.sendBuf != nil && c.sndBase+uint32(c.sendBuf.Len()) != c.sndUna
	}
	return false
}

// pump transmits as much buffered data as the congestion and peer
// windows allow, then the FIN.
func (c *conn) pump(ctx *kernel.Ctx) {
	if c.state != StateEstablished && c.state != StateFinWait1 {
		return
	}
	window := c.cwnd
	if c.peerWnd < window {
		window = c.peerWnd
	}
	for {
		avail := window - int(c.sndNxt-c.sndUna)
		if avail <= 0 {
			return
		}
		n := c.sendData(ctx, c.sndNxt, avail)
		if n == 0 {
			if c.wantFin && c.state == StateEstablished {
				c.sendSegment(ctx, wire.FlagFIN|wire.FlagACK, c.sndNxt, nil)
				c.sndNxt++
				c.state = StateFinWait1
				c.armRTO(ctx)
			}
			return
		}
		c.sndNxt += uint32(n)
		c.armRTO(ctx)
	}
}

// sendData sends one segment of up to limit buffered bytes starting at
// sequence number seq, and returns its length (0: nothing to send).
func (c *conn) sendData(ctx *kernel.Ctx, seq uint32, limit int) int {
	if c.sendBuf == nil {
		return 0
	}
	off := int(seq - c.sndBase)
	n := min(c.sendBuf.Len()-off, wire.MSS, limit)
	if n <= 0 {
		return 0
	}
	c.sendSegment(ctx, wire.FlagACK|wire.FlagPSH, seq, c.sendBuf.Slice(c.path.PathOwner(), off, n))
	return n
}

func (c *conn) armRTO(ctx *kernel.Ctx) {
	if c.rto == 0 {
		c.rto = c.m.RTO
	}
	c.rtoAt = ctx.Now() + c.rto
}

// timer is the connection's share of the master event, run on its own
// path: a connection that has waited on its peer past the timeout is
// reaped; otherwise the unacknowledged segment is retransmitted.
func (c *conn) timer(ctx *kernel.Ctx) {
	if c.expired(ctx.Now()) {
		c.m.Reaped++
		c.close()
		c.path.RequestDestroy()
		return
	}
	c.retransmit(ctx)
}

// expired reports whether the connection has waited on its peer for
// longer than the peer timeout.
func (c *conn) expired(now sim.Cycles) bool {
	return c.waiting() && now-c.ackedAt > c.m.PeerTimeout
}

// retransmit resends one segment from sndUna and backs the window off —
// the classic loss response.
func (c *conn) retransmit(ctx *kernel.Ctx) {
	if c.state == StateClosed || !wire.SeqLT(c.sndUna, c.sndNxt) {
		return
	}
	c.m.Retransmits++
	// Exponential backoff: a loaded receiver must not be bombarded with
	// duplicates — the fixed-RTO alternative collapses under load.
	if c.rto == 0 {
		c.rto = c.m.RTO
	}
	c.rto *= 2
	if max := 2 * sim.CyclesPerSecond; c.rto > max {
		c.rto = max
	}
	inFlight := int(c.sndNxt - c.sndUna)
	c.ssthresh = inFlight / 2
	if c.ssthresh < 2*wire.MSS {
		c.ssthresh = 2 * wire.MSS
	}
	c.cwnd = wire.MSS
	if c.state == StateSynRcvd {
		c.sendSynAck(ctx)
		return
	}
	if c.sendData(ctx, c.sndUna, wire.MSS) == 0 && c.state == StateFinWait1 {
		c.sendSegment(ctx, wire.FlagFIN|wire.FlagACK, c.sndNxt-1, nil)
	}
	c.armRTO(ctx)
}

// sendSynAck (re)sends the SYN-ACK and arms its retransmission.
func (c *conn) sendSynAck(ctx *kernel.Ctx) {
	if c.state != StateSynRcvd {
		return
	}
	c.sendSegment(ctx, wire.FlagSYN|wire.FlagACK, c.iss, nil)
	c.sndNxt = c.iss + 1
	c.armRTO(ctx)
}

func (c *conn) sendAck(ctx *kernel.Ctx) {
	c.sendSegment(ctx, wire.FlagACK, c.sndNxt, nil)
}

// sendSegment pushes a TCP header onto payload (or an empty message)
// and sends it down the path. payload ownership transfers here.
func (c *conn) sendSegment(ctx *kernel.Ctx, flags byte, seq uint32, payload *msg.Msg) {
	model := c.m.k.Model()
	mm := payload
	if mm == nil {
		mm = msg.New(c.path.PathOwner(), msg.DefaultHeadroom, 0)
	}
	c.bytesOut += uint64(mm.Len())
	pushTCP(mm, wire.TCP{
		SrcPort: c.localPort,
		DstPort: c.remotePort,
		Seq:     seq,
		Ack:     c.rcvNxt,
		Flags:   flags,
		Window:  advertised,
	}, c.localIP, c.remoteIP)
	ctx.Use(sim.Cycles(mm.Len()) * model.PerByte)
	_ = c.h.SendDown(ctx, mm)
}

// pushTCP prepends h to mm, checksummed over the payload. The payload
// is read after the push: Push may move it to a new backing and release
// the old one, whose bytes must not be read again.
func pushTCP(mm *msg.Msg, h wire.TCP, srcIP, dstIP uint32) {
	hdr := mm.Push(wire.TCPLen)
	wire.PutTCP(hdr, h, srcIP, dstIP, mm.Bytes()[wire.TCPLen:])
}

// finish completes an orderly close: the connection closes and the
// path destroys itself (running destructors).
func (c *conn) finish(ctx *kernel.Ctx) {
	if c.state == StateClosed {
		return
	}
	ctx.Use(c.m.k.Model().TCPConnTeardown)
	c.close()
	c.m.Completed++
	c.path.RequestDestroy()
}

// releaseSlot returns the listener's SYN_RECVD slot when the
// connection leaves SYN_RCVD, by establishment or by close.
func (c *conn) releaseSlot() {
	if l := c.listener; l != nil {
		l.SynRecvd--
		l.syncPattern()
		c.listener = nil
	}
}

// close is the connection's one exit, taken by finish, timer, the
// stage destructor and the path's kill hook: the connection leaves the
// demux table and the pattern table, returns its SYN_RECVD slot if the
// handshake never completed, and refunds the TCB. Every route runs
// while the path's owner is live: destructors and kill hooks run
// before the owner dies.
func (c *conn) close() {
	if c.state == StateClosed {
		return
	}
	m := c.m
	m.conns.Delete(c.key)
	if m.Patterns != nil {
		m.Patterns.Remove(connPatternName(c.key))
	}
	c.releaseSlot()
	c.state = StateClosed
	c.path.PathOwner().RefundKmem(tcbKmem)
}

// release ends a connection whose path is going away: it closes the
// connection if finish or timer has not, and frees the send buffer.
// The stage destructor and the path's kill hook call it.
func (c *conn) release() {
	c.close()
	if c.sendBuf != nil {
		c.sendBuf.Free()
		c.sendBuf = nil
	}
}

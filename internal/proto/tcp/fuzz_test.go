package tcp_test

import (
	"strings"
	"testing"

	"repro/internal/escort"
	"repro/internal/lib"
	"repro/internal/proto/tcp"
	"repro/internal/proto/wire"
	"repro/internal/sim"
)

// Segment encoding for FuzzConnLifecycle: the first input byte picks
// the source (bit 0: untrusted), then each pair of bytes is one segment
// from a raw peer — a control byte and a gap.
const (
	segSYN  = 1 << 0
	segACK  = 1 << 1
	segFIN  = 1 << 2
	segPSH  = 1 << 3
	ackMask = 3 << 4 // acknowledgment: none, SYN-ACK+1, all received, garbage
	ackSyn  = 1 << 4
	ackAll  = 2 << 4
	ackJunk = 3 << 4
	segReq  = 1 << 6 // carries one full request
	segZero = 1 << 7 // advertises window 0

	maxSegments = 8
	maxGapMs    = 50
)

// FuzzConnLifecycle drives one raw peer through up to eight arbitrary
// segments, then lets the server run past two peer timeouts and a
// master period. Whatever the peer did, the server must then hold no
// half-open or closing connection, no connection waiting on the silent
// peer, no SYN_RECVD slot and no active path outside the demux table;
// HTTP must have served no request on a connection that never
// completed its handshake; and the ledger's containment must hold.
func FuzzConnLifecycle(f *testing.F) {
	seg := func(ctl byte, gapMs byte) []byte { return []byte{ctl, gapMs} }
	seed := func(src byte, segs ...[]byte) []byte {
		b := []byte{src}
		for _, s := range segs {
			b = append(b, s...)
		}
		return b
	}
	syn := seg(segSYN, 20)
	for _, s := range [][]byte{
		// A clean request, response and close.
		seed(0, syn, seg(segACK|segPSH|ackSyn|segReq, 20), seg(segACK|ackAll, 20), seg(segACK|segFIN|ackAll, 20)),
		// 1: SYN, then a bare FIN.
		seed(1, syn, seg(segFIN, 10)),
		// 2: the request and a FIN in one segment, then an ACK of all.
		seed(0, syn, seg(segACK|ackSyn, 5), seg(segACK|segPSH|segFIN|ackSyn|segReq, 30), seg(segACK|ackAll, 20)),
		// 3: a request, then silence.
		seed(0, syn, seg(segACK|ackSyn, 5), seg(segACK|segPSH|ackSyn|segReq, 5)),
		// 4: a blind request, without an ACK and with a wrong one.
		seed(0, syn, seg(segPSH|segReq, 20)),
		seed(1, syn, seg(segACK|segPSH|ackJunk|segReq, 20)),
		// 5: our FIN acknowledged, the peer's never sent.
		seed(0, syn, seg(segACK|segPSH|ackSyn|segReq, 30), seg(segACK|ackAll, 20)),
		// 6: a zero window.
		seed(0, seg(segSYN|segZero, 20), seg(segACK|segPSH|ackSyn|segReq|segZero, 20)),
		// 7: a duplicate SYN.
		seed(1, seg(segSYN, 0), syn),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		e := newPinEnv(t, escort.Options{SynCapUntrusted: 4})
		src := lib.IPv4(10, 0, 1, 7)
		if in[0]&1 != 0 {
			src = lib.IPv4(192, 168, 7, 1)
		}
		ledger := e.srv.K.Ledger()
		before := ledger.Snapshot(e.eng.Now())
		p := newRawPeer(e, src, 2000)
		for i := 1; i+1 < len(in) && i < 2*maxSegments; i += 2 {
			ctl := in[i]
			flags := byte(0)
			for bit, fl := range [...]byte{wire.FlagSYN, wire.FlagACK, wire.FlagFIN, wire.FlagPSH} {
				if ctl&(1<<bit) != 0 {
					flags |= fl
				}
			}
			var ack uint32
			switch ctl & ackMask {
			case ackSyn:
				ack = p.srvISS + 1
			case ackAll:
				ack = p.rcvNxt
			case ackJunk:
				ack = p.rcvNxt + 1000 + uint32(in[i+1])<<16
			}
			window := uint16(openWindow)
			if ctl&segZero != 0 {
				window = 0
			}
			payload := ""
			if ctl&segReq != 0 {
				payload = request
			}
			p.send(flags, ack, window, payload)
			e.srv.Run(sim.Cycles(in[i+1]%(maxGapMs+1)) * sim.CyclesPerMillisecond)
		}
		e.srv.Run(2*peerTimeout + e.srv.TCP.MasterPeriod + 10*sim.CyclesPerMillisecond)

		// Every payload is one full request, which HTTP answers: a
		// connection that took request bytes owes the peer a response
		// and a FIN, so it waits on the peer until it is gone.
		inTable := map[string]bool{}
		e.srv.TCP.EachConn(func(cs tcp.ConnStats) {
			inTable[cs.Path.PathName()] = true
			if cs.State != tcp.StateEstablished || cs.BytesIn != 0 {
				t.Errorf("connection %q left in state %d after taking %d request bytes",
					cs.Path.PathName(), cs.State, cs.BytesIn)
			}
		})
		// And one still waiting would be reaped within one more timeout
		// and master period.
		open, reaped := e.srv.TCP.OpenConns(), e.srv.TCP.Reaped
		e.srv.Run(peerTimeout + e.srv.TCP.MasterPeriod + 10*sim.CyclesPerMillisecond)
		if e.srv.TCP.Reaped != reaped {
			t.Errorf("%d of %d remaining connections were still waiting on the silent peer",
				e.srv.TCP.Reaped-reaped, open)
		}
		for _, l := range e.srv.TCP.Listeners() {
			if l.SynRecvd != 0 {
				t.Errorf("listener %s holds %d SYN_RECVD slots", l.TrustClass, l.SynRecvd)
			}
		}
		for _, ap := range e.srv.Paths.Paths() {
			if name := ap.PathName(); ap.Alive() && strings.HasPrefix(name, "Active Path") && !inTable[name] {
				t.Errorf("live active path %q is not in the connection table", name)
			}
		}
		if e.srv.HTTP.Requests > e.srv.TCP.Established {
			t.Errorf("HTTP served %d requests on %d established connections",
				e.srv.HTTP.Requests, e.srv.TCP.Established)
		}
		if err := ledger.CheckContainment(before, ledger.Snapshot(e.eng.Now())); err != nil {
			t.Error(err)
		}
	})
}

// The hostile cast: the §4.1.2 SYN flood and runaway CGI, plus the
// five classes of the scenario library (see ROBUSTNESS.md "Scenario
// catalog"):
//
//   - Flooder: rate-ticked raw segments that never open a connection —
//     the SYN flood, a sequential SYN sweep across ports 1..1024 (the
//     port scan), and ACK|FIN segments that match no connection.
//   - CGIAttacker: one runaway-CGI request per interval.
//   - SlowAttacker: slowloris-style partial-request holders that keep
//     sessions established while trickling one byte per period.
//   - BruteForcer: scripted credential stuffing against /login.
//   - MemThrasher: parallel fetches cycling through a document set
//     larger than the FS cache, evicting the legitimate working set.
//
// Each class exercises a different server-side detection signal. All
// share one control core (attack): every timer an attacker arms is a
// pooled handle that Stop cancels, with PendingEvents as the audit.

package workload

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/proto/wire"
	"repro/internal/sim"
)

// floodKind selects the segment a Flooder sends.
type floodKind uint8

const (
	synFlood    floodKind = iota // SYN to port 80
	portScan                     // SYN to the next port of 1..1024
	ackFinFlood                  // ACK|FIN to port 80, matching no connection
)

// Per kind: the sequence-number step and the source port the flood
// counts up from, so each stream is distinct on the wire.
var (
	floodSeqStep = [...]uint32{synFlood: 777, portScan: 65537, ackFinFlood: 98711}
	floodSrcPort = [...]uint16{synFlood: 2000, portScan: 40000, ackFinFlood: 20000}
)

// The port range a port scan sweeps, wrapping around until stopped.
const (
	scanFirstPort = 1
	scanLastPort  = 1024
)

// Flooder sends Rate raw segments per second and never completes a
// handshake. Its server-side signature depends on the kind: the SYN
// flood fills SYN_RCVD state (§4.1.2: 1000 SYN/s); nearly every scan
// probe misses a listener, so the demux NoListener counter races ahead;
// and each ACK|FIN segment fails the connection lookup and dies in
// demux as a stray, a cost bounded by design.
type Flooder struct {
	attack
	Rate uint64 // segments per second

	Sent uint64

	kind    floodKind
	seq     uint32
	srcPort uint16
	next    uint16 // port-scan cursor
}

// NewSynAttacker creates a SYN flood station.
func NewSynAttacker(eng *sim.Engine, seg netsim.Attacher, name string, ip uint32, mac netsim.MAC, serverIP uint32, rate uint64, seed uint64) *Flooder {
	return newFlooder(synFlood, NewStation(eng, seg, name, ip, mac, serverIP, seed), rate)
}

// NewPortScanner creates a station sweeping SYN probes across the
// conventional 1..1024 range at rate probes/second.
func NewPortScanner(eng *sim.Engine, seg netsim.Attacher, name string, ip uint32, mac netsim.MAC, serverIP uint32, rate uint64, seed uint64) *Flooder {
	return newFlooder(portScan, NewStation(eng, seg, name, ip, mac, serverIP, seed), rate)
}

// NewAckFlooder creates an ACK|FIN flood station.
func NewAckFlooder(eng *sim.Engine, seg netsim.Attacher, name string, ip uint32, mac netsim.MAC, serverIP uint32, rate uint64, seed uint64) *Flooder {
	return newFlooder(ackFinFlood, NewStation(eng, seg, name, ip, mac, serverIP, seed), rate)
}

func newFlooder(kind floodKind, st *Station, rate uint64) *Flooder {
	return &Flooder{attack: attack{Station: st}, Rate: rate, kind: kind, srcPort: floodSrcPort[kind]}
}

// Start begins the flood.
func (a *Flooder) Start() { a.start(a.tick) }

func (a *Flooder) tick() {
	a.tickEv = sim.Event{}
	if a.stopped || a.Rate == 0 {
		return
	}
	a.seq += floodSeqStep[a.kind]
	a.srcPort++
	if a.srcPort < 1024 {
		a.srcPort = 1024
	}
	switch a.kind {
	case synFlood:
		a.sendTCP(a.srcPort, httpPort, wire.FlagSYN, a.seq, 0, nil)
	case portScan:
		port := a.next
		if port < scanFirstPort || port > scanLastPort {
			port = scanFirstPort
		}
		a.next = port + 1
		// A probe that does land on a listener (80, 81) leaves a
		// half-open server connection behind, same as a SYN-flood
		// segment; the scanner never answers the SYN-ACK.
		a.sendTCP(a.srcPort, port, wire.FlagSYN, a.seq, 0, nil)
	case ackFinFlood:
		a.sendTCP(a.srcPort, httpPort, wire.FlagACK|wire.FlagFIN, a.seq, a.seq^0x5a5a5a5a, nil)
	}
	a.Sent++
	a.again(sim.Cycles(uint64(sim.CyclesPerSecond)/a.Rate), a.tick)
}

// CGIAttacker issues one runaway-CGI request per Interval (§4.1.2: one
// per second); the request never completes — the server kills the path
// after it burns its CPU budget.
type CGIAttacker struct {
	attack
	Interval sim.Cycles

	Launched uint64
}

// NewCGIAttacker creates the attacker station.
func NewCGIAttacker(eng *sim.Engine, seg netsim.Attacher, name string, ip uint32, mac netsim.MAC, serverIP uint32, seed uint64) *CGIAttacker {
	return &CGIAttacker{
		attack:   attack{Station: NewStation(eng, seg, name, ip, mac, serverIP, seed)},
		Interval: sim.CyclesPerSecond,
	}
}

// Start begins the attack loop.
func (a *CGIAttacker) Start() { a.start(a.tick) }

func (a *CGIAttacker) tick() {
	a.tickEv = sim.Event{}
	if a.stopped {
		return
	}
	a.Launched++
	req := []byte("GET /cgi-bin/spin HTTP/1.0\r\n\r\n")
	conn := a.open(httpPort, req, nil, nil)
	// The server never answers a runaway request. The attacker keeps
	// normal TCP patience — on a heavily loaded server the request may
	// take seconds to be accepted, and the attack must still land.
	tc := &timedConn{pc: conn}
	tc.ev = a.Eng.After(10*a.Interval, func() {
		tc.ev = sim.Event{}
		conn.abandon(false)
	})
	a.track(tc)
	a.again(a.Interval, a.tick)
}

// slowTrickle is the padding-byte period of each held session.
const slowTrickle = 200 * sim.CyclesPerMillisecond

// SlowAttacker holds Conns connections open with an unfinished request
// header, then trickles one padding byte per period so the sessions
// never idle out at the TCP layer. Each session costs the server kernel
// memory, a path, and per-segment processing against a byte count that
// barely moves — the cycles-per-byte asymmetry the session reaper
// keys on.
type SlowAttacker struct {
	attack
	Conns int // sessions to hold open

	// Opened counts sessions launched; TrickleSent counts padding bytes.
	Opened      uint64
	TrickleSent uint64
}

// NewSlowAttacker creates the attacker station holding conns sessions.
func NewSlowAttacker(eng *sim.Engine, seg netsim.Attacher, name string, ip uint32, mac netsim.MAC, serverIP uint32, conns int, seed uint64) *SlowAttacker {
	a := &SlowAttacker{
		attack: attack{Station: NewStation(eng, seg, name, ip, mac, serverIP, seed)},
		Conns:  conns,
	}
	// The request is deliberately incomplete; retransmitting it would
	// only resend the same partial header.
	a.ReqRetry = 0
	return a
}

// Start opens the held sessions, trickle timers staggered across one
// period so the padding bytes don't arrive as a burst.
func (a *SlowAttacker) Start() {
	a.start(func() {
		for i := 0; i < a.Conns; i++ {
			a.openOne(i)
		}
	})
}

func (a *SlowAttacker) openOne(i int) {
	// No trailing \r\n\r\n: the server's HTTP stage waits forever for
	// the rest of the request.
	header := []byte("GET /doc1k HTTP/1.0\r\nHost: server\r\nX-Pad: ")
	tc := &timedConn{pc: a.open(httpPort, header, nil, nil)}
	a.Opened++
	a.book = append(a.book, tc)
	a.armTrickle(tc, slowTrickle+sim.Cycles(i)*slowTrickle/sim.Cycles(a.Conns))
}

func (a *SlowAttacker) armTrickle(tc *timedConn, d sim.Cycles) {
	tc.ev = a.Eng.After(a.rng.Jitter(d, 0.05), func() {
		tc.ev = sim.Event{}
		if a.stopped {
			return
		}
		pc := tc.pc
		if pc.state == pcDone || pc.state == pcFailed {
			return
		}
		if pc.state == pcEstablished {
			// One padding byte. If the server has already killed the
			// path the segment dies in demux as a stray — the attacker
			// has no way to know, which is exactly the point.
			a.sendTCP(pc.localPort, pc.remotePort, wire.FlagACK|wire.FlagPSH,
				pc.sndNxt, pc.rcvNxt, []byte{'.'})
			pc.sndNxt++
			a.TrickleSent++
		}
		a.armTrickle(tc, slowTrickle)
	})
}

// bruteTimeout abandons a credential attempt the server never answers.
const bruteTimeout = 2 * sim.CyclesPerSecond

// BruteForcer stuffs scripted credentials into /login at a fixed
// rate. Every attempt is a complete, individually cheap request — the
// volume signal is the HTTP module's AuthFailures counter, not any
// per-connection resource asymmetry.
type BruteForcer struct {
	attack
	Rate uint64 // attempts per second

	// Attempts counts requests launched; Answered counts attempts the
	// server actually rejected (403 received, connection closed clean).
	Attempts uint64
	Answered uint64
}

// NewBruteForcer creates the attacker station.
func NewBruteForcer(eng *sim.Engine, seg netsim.Attacher, name string, ip uint32, mac netsim.MAC, serverIP uint32, rate uint64, seed uint64) *BruteForcer {
	return &BruteForcer{
		attack: attack{Station: NewStation(eng, seg, name, ip, mac, serverIP, seed)},
		Rate:   rate,
	}
}

// Start begins the credential loop.
func (a *BruteForcer) Start() { a.start(a.tick) }

func (a *BruteForcer) tick() {
	a.tickEv = sim.Event{}
	if a.stopped || a.Rate == 0 {
		return
	}
	req := []byte(fmt.Sprintf(
		"GET /login?user=admin&pass=%06d HTTP/1.0\r\nHost: server\r\n\r\n", a.Attempts))
	a.Attempts++
	tc := &timedConn{}
	tc.pc = a.open(httpPort, req, nil, func(success bool) {
		a.Eng.Cancel(tc.ev)
		tc.ev = sim.Event{}
		if success {
			a.Answered++
		}
	})
	tc.ev = a.Eng.After(bruteTimeout, func() {
		tc.ev = sim.Event{}
		if tc.pc.state != pcDone && tc.pc.state != pcFailed {
			tc.pc.abandon(false)
		}
	})
	a.track(tc)
	a.again(sim.Cycles(uint64(sim.CyclesPerSecond)/a.Rate), a.tick)
}

// memTimeout abandons a stalled fetch so its pipeline moves on.
const memTimeout = 5 * sim.CyclesPerSecond

// MemThrasher runs Parallel request pipelines cycling through Docs —
// a set chosen to exceed the FS cache budget — so every fetch misses,
// evicts part of the legitimate working set, and forces the next
// legitimate request to miss too. The requests themselves are
// well-formed; the damage is in the cache, which is why the
// server-side signal is the FS miss counter rather than any demux or
// TCP anomaly.
type MemThrasher struct {
	attack
	Docs     []string
	Parallel int

	Fetched uint64
	Failed  uint64

	idx int
}

// NewMemThrasher creates the attacker station cycling through docs on
// parallel pipelines.
func NewMemThrasher(eng *sim.Engine, seg netsim.Attacher, name string, ip uint32, mac netsim.MAC, serverIP uint32, docs []string, parallel int, seed uint64) *MemThrasher {
	return &MemThrasher{
		attack:   attack{Station: NewStation(eng, seg, name, ip, mac, serverIP, seed)},
		Docs:     docs,
		Parallel: parallel,
	}
}

// Start launches the pipelines, one booked slot each.
func (a *MemThrasher) Start() {
	a.start(func() {
		for i := 0; i < a.Parallel; i++ {
			slot := &timedConn{}
			a.book = append(a.book, slot)
			a.launch(slot)
		}
	})
}

// launch issues the next fetch on slot, back-to-back with the
// previous one: completion (or timeout) immediately starts the next.
func (a *MemThrasher) launch(slot *timedConn) {
	if a.stopped || len(a.Docs) == 0 {
		return
	}
	doc := a.Docs[a.idx%len(a.Docs)]
	a.idx++
	req := []byte(fmt.Sprintf("GET %s HTTP/1.0\r\nHost: server\r\n\r\n", doc))
	pc := a.open(httpPort, req, nil, func(success bool) {
		a.Eng.Cancel(slot.ev)
		slot.ev = sim.Event{}
		if success {
			a.Fetched++
		} else {
			a.Failed++
		}
		if !a.stopped {
			a.launch(slot)
		}
	})
	slot.pc = pc
	slot.ev = a.Eng.After(memTimeout, func() {
		slot.ev = sim.Event{}
		if slot.pc == pc && pc.state != pcDone && pc.state != pcFailed {
			pc.abandon(false) // onClose relaunches the slot
		}
	})
}

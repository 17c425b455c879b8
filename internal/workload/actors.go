package workload

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Client performs a sequence of serial requests for the same document
// (§4.1.2's "Client" load).
type Client struct {
	*Station
	Doc  string
	Port uint16

	// Think is an optional delay between a completion and the next
	// request.
	Think sim.Cycles

	// MaxRequests stops the loop after that many completions (zero:
	// unlimited) — Table 1 measures exactly 100 serial requests.
	MaxRequests uint64

	// Completed counts successful request/response/close cycles;
	// TotalLatency accumulates their durations.
	Completed    uint64
	Failed       uint64
	TotalLatency sim.Cycles

	cur       *peerConn
	req       []byte     // the request, built once by Start
	start     sim.Cycles // when cur was opened
	onClose   func(bool) // c.closed, bound once by Start
	stopped   bool
	timeoutEv sim.Event

	// Timeout abandons a connection that stalls (the CGI attacker's
	// requests never complete).
	Timeout sim.Cycles
}

// NewClient creates a client station requesting doc from the server's
// port 80.
func NewClient(eng *sim.Engine, seg netsim.Attacher, name string, ip uint32, mac netsim.MAC, serverIP uint32, doc string, seed uint64) *Client {
	return &Client{
		Station: NewStation(eng, seg, name, ip, mac, serverIP, seed),
		Doc:     doc,
		Port:    80,
		Timeout: 10 * sim.CyclesPerSecond,
	}
}

// Start begins the request loop (after ARP resolution). Every request
// of the loop is the same bytes, so they are built here once; sendTCP
// copies them into each segment.
func (c *Client) Start() {
	const method, rest = "GET ", " HTTP/1.0\r\nHost: server\r\n\r\n"
	c.req = make([]byte, 0, len(method)+len(c.Doc)+len(rest))
	c.req = append(append(append(c.req, method...), c.Doc...), rest...)
	c.onClose = c.closed
	c.Resolve(c.next)
}

// Stop ends the loop after the in-flight request.
func (c *Client) Stop() { c.stopped = true }

func (c *Client) next() {
	if c.stopped || (c.MaxRequests > 0 && c.Completed >= c.MaxRequests) {
		return
	}
	c.start = c.Eng.Now()
	c.cur = c.open(c.Port, c.req, nil, c.onClose)
	if c.Timeout > 0 {
		c.timeoutEv = c.Eng.AfterArg(c.Timeout, clientTimeout, c)
	}
}

// closed ends the current request and starts the next one, after the
// think time if there is one.
func (c *Client) closed(success bool) {
	// Cancel the stall timeout: without this, every completed request
	// would leave a long-dated stale timer queued, and a busy client
	// accumulates hundreds of them.
	c.Eng.Cancel(c.timeoutEv)
	c.timeoutEv = sim.Event{}
	if success {
		c.Completed++
		c.TotalLatency += c.Eng.Now() - c.start
	} else {
		c.Failed++
	}
	if c.Think > 0 {
		c.Eng.AfterArg(c.rng.Jitter(c.Think, 0.1), clientNext, c)
	} else {
		c.next()
	}
}

func clientNext(a any) { a.(*Client).next() }

// clientTimeout abandons a stalled request. The timer is cancelled when
// its connection closes, and the next connection opens only after that,
// so the connection it was armed for is still c.cur.
func clientTimeout(a any) {
	c := a.(*Client)
	c.timeoutEv = sim.Event{}
	if conn := c.cur; conn.state != pcDone && conn.state != pcFailed {
		conn.abandon(false)
	}
}

// MeanLatency returns the average completed-request latency.
func (c *Client) MeanLatency() sim.Cycles {
	if c.Completed == 0 {
		return 0
	}
	return c.TotalLatency / sim.Cycles(c.Completed)
}

// Attacker is the common teardown surface of the hostile actors. Each
// scenario's Attack starts its attackers on their concrete types after
// warmup; the scenario harness then drives every attack class through
// this interface: Stop at the end of the measurement window, then a
// teardown-quiescence check that PendingEvents reports zero — an
// attacker must not leave timers ticking after it was told to stop.
type Attacker interface {
	Stop()
	// PendingEvents counts the live timer handles the attacker still
	// owns. Zero after Stop; the harness asserts exactly that.
	PendingEvents() int
}

var (
	_ Attacker = (*Flooder)(nil)
	_ Attacker = (*CGIAttacker)(nil)
	_ Attacker = (*SlowAttacker)(nil)
	_ Attacker = (*BruteForcer)(nil)
	_ Attacker = (*MemThrasher)(nil)
)

// httpPort is the server's web service port, the target of every
// attacker except the port scan.
const httpPort = 80

// attack is the control core every attacker embeds: the stop latch, the
// rate tick, and the book of connections it holds, each paired with the
// timer that will abandon or feed it.
type attack struct {
	*Station
	stopped bool
	tickEv  sim.Event
	// book is kept in launch order — a slice, not a map, so teardown
	// cancels in a deterministic order (event-pool reuse order is part of
	// the byte-determinism contract).
	book []*timedConn
}

// timedConn pairs a connection with the one-shot timer armed for it.
// The discipline that keeps PendingEvents honest is that each callback
// zeroes its own handle as its first action.
type timedConn struct {
	pc *peerConn
	ev sim.Event
}

// start runs fn once the server's MAC is resolved, unless the attacker
// was stopped while the ARP request was outstanding.
func (a *attack) start(fn func()) {
	a.Resolve(func() {
		if !a.stopped {
			fn()
		}
	})
}

// Stop ends the attack: it cancels the queued tick, then each booked
// timer in launch order, and abandons the booked connections.
func (a *attack) Stop() {
	a.stopped = true
	a.Eng.Cancel(a.tickEv)
	a.tickEv = sim.Event{}
	for _, tc := range a.book {
		a.Eng.Cancel(tc.ev)
		tc.ev = sim.Event{}
		if tc.pc != nil {
			tc.pc.abandon(false)
		}
	}
	a.book = nil
}

// PendingEvents implements Attacker.
func (a *attack) PendingEvents() int {
	n := evCount(a.tickEv)
	for _, tc := range a.book {
		n += evCount(tc.ev)
		if tc.pc != nil {
			n += evCount(tc.pc.retryEv, tc.pc.delackEv)
		}
	}
	return n
}

// again arms the next tick one jittered period from now.
func (a *attack) again(period sim.Cycles, tick func()) {
	a.tickEv = a.Eng.After(a.rng.Jitter(period, 0.05), tick)
}

// track books tc and drops the entries whose connection is finished
// and whose timer has fired or been cancelled, preserving order.
func (a *attack) track(tc *timedConn) {
	a.book = append(a.book, tc)
	live := a.book[:0]
	for _, tc := range a.book {
		done := tc.pc.state == pcDone || tc.pc.state == pcFailed
		if !done || !tc.ev.IsZero() {
			live = append(live, tc)
		}
	}
	a.book = live
}

// evCount counts the non-cancelled handles among evs.
func evCount(evs ...sim.Event) int {
	n := 0
	for _, ev := range evs {
		if !ev.IsZero() {
			n++
		}
	}
	return n
}

// QoSReceiver opens the guaranteed-bandwidth stream (§4.1.2) and
// measures the delivered rate over sliding windows.
type QoSReceiver struct {
	*Station
	Port uint16

	BytesReceived uint64
	samples       []rateSample
}

type rateSample struct {
	at    sim.Cycles
	total uint64
}

// NewQoSReceiver creates the receiver station (stream service on port
// 81).
func NewQoSReceiver(eng *sim.Engine, seg netsim.Attacher, name string, ip uint32, mac netsim.MAC, serverIP uint32, seed uint64) *QoSReceiver {
	r := &QoSReceiver{
		Station: NewStation(eng, seg, name, ip, mac, serverIP, seed),
		Port:    81,
	}
	// Streams are latency-sensitive: acknowledge every segment.
	r.DelAckThreshold = 1
	return r
}

// Start opens the stream.
func (r *QoSReceiver) Start() {
	r.Resolve(func() {
		req := []byte("GET /stream HTTP/1.0\r\n\r\n")
		r.open(r.Port, req, func(n int) {
			r.BytesReceived += uint64(n)
		}, nil)
		r.sample()
	})
}

func (r *QoSReceiver) sample() {
	r.samples = append(r.samples, rateSample{at: r.Eng.Now(), total: r.BytesReceived})
	if len(r.samples) > 256 {
		r.samples = r.samples[len(r.samples)-128:]
	}
	r.Eng.After(sim.CyclesPerSecond/2, r.sample)
}

// RateBps returns the average delivery rate (bytes/second) over the
// most recent window of the given length — the paper's ten-second
// averages use window = 10 s.
func (r *QoSReceiver) RateBps(window sim.Cycles) float64 {
	now := r.Eng.Now()
	cutoff := sim.Cycles(0)
	if now > window {
		cutoff = now - window
	}
	// Find the earliest sample at or after the cutoff.
	for _, s := range r.samples {
		if s.at >= cutoff {
			dt := now - s.at
			if dt == 0 {
				return 0
			}
			return float64(r.BytesReceived-s.total) / dt.Seconds()
		}
	}
	return 0
}

package workload

import (
	"bytes"
	"testing"

	"repro/internal/cost"
	"repro/internal/lib"
	"repro/internal/linuxsim"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// The workload package is tested against the linuxsim server: a full
// TCP conversation in both directions over the simulated network.

const mbps100 = 100_000_000

var (
	serverIP  = lib.IPv4(10, 0, 0, 1)
	serverMAC = netsim.MAC(0x0200_0000_0001)
)

type env struct {
	eng *sim.Engine
	hub *netsim.Hub
	srv *linuxsim.Server
}

func newEnv() *env {
	eng := sim.New()
	hub := netsim.NewHub(eng, mbps100, 3000)
	docs := map[string][]byte{
		"/doc1":  []byte("y"),
		"/doc1k": bytes.Repeat([]byte("y"), 1024),
	}
	srv := linuxsim.New(eng, cost.Default(), hub, serverIP, serverMAC, docs)
	return &env{eng: eng, hub: hub, srv: srv}
}

func TestClientARPResolvesOnce(t *testing.T) {
	e := newEnv()
	c := NewClient(e.eng, e.hub, "c", lib.IPv4(10, 0, 1, 1), 0x0200_0000_1001,
		serverIP, "/doc1", 1)
	c.Start()
	e.eng.Drain(sim.CyclesPerSecond)
	if !c.resolved {
		t.Fatal("ARP never resolved")
	}
	if c.Completed == 0 {
		t.Fatal("no completions after resolution")
	}
}

func TestClientSerialLoop(t *testing.T) {
	e := newEnv()
	c := NewClient(e.eng, e.hub, "c", lib.IPv4(10, 0, 1, 1), 0x0200_0000_1001,
		serverIP, "/doc1k", 1)
	c.MaxRequests = 7
	c.Start()
	e.eng.Drain(3 * sim.CyclesPerSecond)
	if c.Completed != 7 {
		t.Fatalf("completed = %d, want exactly MaxRequests (7)", c.Completed)
	}
	if c.MeanLatency() == 0 {
		t.Fatal("no latency recorded")
	}
	if len(c.conns) != 0 {
		t.Fatalf("connection map leaks %d entries", len(c.conns))
	}
}

func TestClientThinkPacesRequests(t *testing.T) {
	run := func(think sim.Cycles) uint64 {
		e := newEnv()
		c := NewClient(e.eng, e.hub, "c", lib.IPv4(10, 0, 1, 1), 0x0200_0000_1001,
			serverIP, "/doc1", 1)
		c.Think = think
		c.Start()
		e.eng.Drain(2 * sim.CyclesPerSecond)
		return c.Completed
	}
	fast := run(0)
	slow := run(20 * sim.CyclesPerMillisecond)
	if slow >= fast {
		t.Fatalf("think time did not pace: %d vs %d", slow, fast)
	}
	if slow == 0 {
		t.Fatal("paced client made no progress")
	}
}

func TestSynAttackerRate(t *testing.T) {
	e := newEnv()
	a := NewSynAttacker(e.eng, e.hub, "atk", lib.IPv4(192, 168, 9, 9),
		0x0200_0000_9999, serverIP, 1000, 3)
	a.Start()
	e.eng.Drain(2 * sim.CyclesPerSecond)
	// ~1000/s for ~2s minus ARP startup.
	if a.Sent < 1700 || a.Sent > 2100 {
		t.Fatalf("sent = %d SYNs in 2s at 1000/s", a.Sent)
	}
	a.Stop()
	before := a.Sent
	e.eng.Drain(3 * sim.CyclesPerSecond)
	if a.Sent != before {
		t.Fatal("attacker kept sending after Stop")
	}
}

func TestSynAttackerNeverCompletesHandshake(t *testing.T) {
	e := newEnv()
	a := NewSynAttacker(e.eng, e.hub, "atk", lib.IPv4(192, 168, 9, 9),
		0x0200_0000_9999, serverIP, 100, 3)
	a.Start()
	e.eng.Drain(sim.CyclesPerSecond)
	// The linuxsim server piles up half-open connections: the attack
	// works against an unprotected server.
	if e.srv.OpenConns() < 50 {
		t.Fatalf("open (half-open) conns = %d; attack had no effect", e.srv.OpenConns())
	}
	if e.srv.Completed != 0 {
		t.Fatal("attacker connections completed?!")
	}
}

func TestCGIAttackerLaunchRate(t *testing.T) {
	e := newEnv()
	a := NewCGIAttacker(e.eng, e.hub, "cgi", lib.IPv4(10, 0, 2, 1),
		0x0200_0000_2001, serverIP, 9)
	a.Start()
	e.eng.Drain(5 * sim.CyclesPerSecond)
	if a.Launched < 4 || a.Launched > 6 {
		t.Fatalf("launched = %d in 5s at 1/s", a.Launched)
	}
	if len(a.conns) > 1 {
		t.Fatalf("attacker leaks connections: %d", len(a.conns))
	}
}

func TestDelayedAckBehavior(t *testing.T) {
	// With threshold 2, a client receiving one segment waits for the
	// delack timeout before acknowledging; receiving two acks at once.
	e := newEnv()
	c := NewClient(e.eng, e.hub, "c", lib.IPv4(10, 0, 1, 1), 0x0200_0000_1001,
		serverIP, "/doc1", 1)
	c.DelAckThreshold = 2
	c.DelAckTimeout = 30 * sim.CyclesPerMillisecond
	c.MaxRequests = 1
	c.Start()
	e.eng.Drain(2 * sim.CyclesPerSecond)
	if c.Completed != 1 {
		t.Fatalf("completed = %d", c.Completed)
	}
}

func TestStationPortAllocationWrapsSafely(t *testing.T) {
	e := newEnv()
	st := NewStation(e.eng, e.hub, "s", lib.IPv4(10, 0, 1, 1), 0x0200_0000_1001, serverIP, 1)
	st.portSeq = 65534
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		p := st.nextPort()
		if p < 1024 {
			t.Fatalf("allocated reserved port %d", p)
		}
		if seen[p] {
			t.Fatalf("duplicate port %d", p)
		}
		seen[p] = true
		st.conns[p] = &peerConn{} // hold it
	}
}

func TestQoSReceiverRateMeasurement(t *testing.T) {
	// Feed the receiver raw data frames directly and check the windowed
	// rate math.
	eng := sim.New()
	hub := netsim.NewHub(eng, mbps100, 0)
	r := NewQoSReceiver(eng, hub, "qos", lib.IPv4(10, 0, 0, 2), 0x0200_0000_0002, serverIP, 5)
	r.BytesReceived = 0
	// Simulate samples directly.
	for i := 0; i <= 10; i++ {
		r.samples = append(r.samples, rateSample{
			at:    sim.Cycles(i) * sim.CyclesPerSecond / 2,
			total: uint64(i) * 500_000,
		})
	}
	r.BytesReceived = 10 * 500_000
	eng.ConsumeCPU(5 * sim.CyclesPerSecond)
	rate := r.RateBps(4 * sim.CyclesPerSecond)
	// 500 KB per half second = 1 MB/s.
	if rate < 0.95e6 || rate > 1.05e6 {
		t.Fatalf("rate = %.0f, want ~1e6", rate)
	}
}

// TestPeerConnTimersDoNotAllocate pins the connection timers as
// arg-carrying engine events: arming and cancelling the request retry,
// the SYN retry and the delayed ACK allocates nothing.
func TestPeerConnTimersDoNotAllocate(t *testing.T) {
	e := newEnv()
	s := NewStation(e.eng, e.hub, "c", lib.IPv4(10, 0, 1, 1), 0x0200_0000_1001, serverIP, 1)
	s.DelAckThreshold = 1 << 30
	c := &peerConn{st: s, state: pcEstablished}
	allocs := testing.AllocsPerRun(1000, func() {
		c.armReqRetry()
		c.cancelTimers()
		c.retryEv = s.Eng.AfterArg(s.SynRetry, synRetry, c)
		c.deferAck()
		c.cancelTimers()
	})
	if allocs != 0 {
		t.Fatalf("timer arm+cancel allocates %.1f objects, want 0", allocs)
	}
	if s.Eng.Pending() != 0 {
		t.Fatalf("%d timers left pending", s.Eng.Pending())
	}
}

package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestSlowAttackerHoldsSessions(t *testing.T) {
	e := newEnv()
	a := NewSlowAttacker(e.eng, e.hub, "slow", lib.IPv4(192, 168, 7, 7),
		0x0200_0000_7777, serverIP, 8, 11)
	a.Start()
	e.eng.Drain(2 * sim.CyclesPerSecond)
	if a.Opened != 8 {
		t.Fatalf("opened = %d, want 8", a.Opened)
	}
	// ~5 trickle bytes/second/session over ~2s.
	if a.TrickleSent < 8*4 {
		t.Fatalf("trickle bytes = %d; sessions not being kept alive", a.TrickleSent)
	}
	// The sessions never complete: the server holds them all.
	if e.srv.Completed != 0 {
		t.Fatalf("slowloris sessions completed?! (%d)", e.srv.Completed)
	}
	if got := e.srv.OpenConns(); got < 8 {
		t.Fatalf("server open conns = %d, want all 8 held", got)
	}
}

func TestPortScannerSweepsRange(t *testing.T) {
	e := newEnv()
	a := NewPortScanner(e.eng, e.hub, "scan", lib.IPv4(192, 168, 7, 8),
		0x0200_0000_7778, serverIP, 500, 12)
	a.Start()
	e.eng.Drain(2 * sim.CyclesPerSecond)
	// ~500/s for ~2s minus ARP startup.
	if a.Sent < 850 || a.Sent > 1050 {
		t.Fatalf("probes = %d in 2s at 500/s", a.Sent)
	}
	if a.next <= scanFirstPort {
		t.Fatalf("sweep cursor never advanced (next=%d)", a.next)
	}
	if e.srv.Completed != 0 {
		t.Fatal("scanner completed a connection?!")
	}
}

func TestBruteForcerRate(t *testing.T) {
	e := newEnv()
	a := NewBruteForcer(e.eng, e.hub, "brute", lib.IPv4(192, 168, 7, 9),
		0x0200_0000_7779, serverIP, 50, 13)
	a.Start()
	e.eng.Drain(2 * sim.CyclesPerSecond)
	if a.Attempts < 80 || a.Attempts > 110 {
		t.Fatalf("attempts = %d in 2s at 50/s", a.Attempts)
	}
	if a.Answered > a.Attempts {
		t.Fatalf("answered %d > attempts %d", a.Answered, a.Attempts)
	}
}

func TestAckFlooderRate(t *testing.T) {
	e := newEnv()
	a := NewAckFlooder(e.eng, e.hub, "ack", lib.IPv4(192, 168, 7, 10),
		0x0200_0000_777a, serverIP, 1000, 14)
	a.Start()
	e.eng.Drain(2 * sim.CyclesPerSecond)
	if a.Sent < 1700 || a.Sent > 2100 {
		t.Fatalf("sent = %d in 2s at 1000/s", a.Sent)
	}
	// Stray segments never create server state.
	if e.srv.OpenConns() != 0 {
		t.Fatalf("ACK flood created %d server conns", e.srv.OpenConns())
	}
}

func TestMemThrasherCyclesDocs(t *testing.T) {
	e := newEnv()
	a := NewMemThrasher(e.eng, e.hub, "thrash", lib.IPv4(192, 168, 7, 11),
		0x0200_0000_777b, serverIP, []string{"/doc1", "/doc1k"}, 4, 15)
	a.Start()
	e.eng.Drain(2 * sim.CyclesPerSecond)
	if a.Fetched < 8 {
		t.Fatalf("fetched = %d; pipelines not cycling", a.Fetched)
	}
	if a.idx < int(a.Fetched) {
		t.Fatalf("idx = %d < fetched = %d", a.idx, a.Fetched)
	}
}

// startable is a hostile actor as the scenarios drive it: started on
// its concrete type, then stopped and checked through Attacker.
type startable interface {
	Attacker
	Start()
}

// attackerCases builds each of the seven hostile actors against env e,
// with the station it sends from and the work counter that must freeze
// once it is stopped.
var attackerCases = []struct {
	name string
	make func(e *env) (startable, *Station, func() uint64)
}{
	{"syn", func(e *env) (startable, *Station, func() uint64) {
		a := NewSynAttacker(e.eng, e.hub, "syn", lib.IPv4(192, 168, 9, 1),
			0x0200_0000_9901, serverIP, 500, 21)
		return a, a.Station, func() uint64 { return a.Sent }
	}},
	{"cgi", func(e *env) (startable, *Station, func() uint64) {
		a := NewCGIAttacker(e.eng, e.hub, "cgi", lib.IPv4(192, 168, 9, 2),
			0x0200_0000_9902, serverIP, 22)
		a.Interval = 100 * sim.CyclesPerMillisecond
		return a, a.Station, func() uint64 { return a.Launched }
	}},
	{"slowloris", func(e *env) (startable, *Station, func() uint64) {
		a := NewSlowAttacker(e.eng, e.hub, "slow", lib.IPv4(192, 168, 9, 3),
			0x0200_0000_9903, serverIP, 6, 23)
		return a, a.Station, func() uint64 { return a.TrickleSent }
	}},
	{"portscan", func(e *env) (startable, *Station, func() uint64) {
		a := NewPortScanner(e.eng, e.hub, "scan", lib.IPv4(192, 168, 9, 4),
			0x0200_0000_9904, serverIP, 500, 24)
		return a, a.Station, func() uint64 { return a.Sent }
	}},
	{"bruteforce", func(e *env) (startable, *Station, func() uint64) {
		a := NewBruteForcer(e.eng, e.hub, "brute", lib.IPv4(192, 168, 9, 5),
			0x0200_0000_9905, serverIP, 50, 25)
		return a, a.Station, func() uint64 { return a.Attempts }
	}},
	{"ackfinflood", func(e *env) (startable, *Station, func() uint64) {
		a := NewAckFlooder(e.eng, e.hub, "ack", lib.IPv4(192, 168, 9, 6),
			0x0200_0000_9906, serverIP, 500, 26)
		return a, a.Station, func() uint64 { return a.Sent }
	}},
	{"memthrash", func(e *env) (startable, *Station, func() uint64) {
		a := NewMemThrasher(e.eng, e.hub, "thrash", lib.IPv4(192, 168, 9, 7),
			0x0200_0000_9907, serverIP, []string{"/doc1", "/doc1k"}, 3, 27)
		return a, a.Station, func() uint64 { return a.Fetched }
	}},
}

// TestAttackersStopQuiesce is the teardown contract: after Stop, every
// attacker reports zero pending events, holds no connections, and its
// work counter freezes.
func TestAttackersStopQuiesce(t *testing.T) {
	for _, c := range attackerCases {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv()
			a, _, count := c.make(e)
			a.Start()
			e.eng.Drain(sim.CyclesPerSecond)
			if count() == 0 {
				t.Fatal("attacker did no work before Stop")
			}
			a.Stop()
			if n := a.PendingEvents(); n != 0 {
				t.Fatalf("PendingEvents = %d after Stop, want 0", n)
			}
			frozen := count()
			e.eng.Drain(2 * sim.CyclesPerSecond)
			if got := count(); got != frozen {
				t.Fatalf("work continued after Stop: %d -> %d", frozen, got)
			}
			if n := a.PendingEvents(); n != 0 {
				t.Fatalf("PendingEvents = %d long after Stop, want 0", n)
			}
		})
	}
}

// TestAttackerWireTrace pins every attacker's traffic frame by frame: a
// promiscuous sniffer on the hub hashes each frame it sees, both
// directions, together with its arrival time. A change to what an
// attacker sends, when, or how it tears down moves the digest.
func TestAttackerWireTrace(t *testing.T) {
	want := map[string]struct {
		frames int
		digest string
	}{
		"syn":         {1004, "bfa303f893e0c4c8e1447d9320b2c1a82b3958fa367b9526d6e84972287e5a47"},
		"cgi":         {82, "2ab009e337a08096aedf1caa9282e322192b05fdc80ec46819b2340961da18af"},
		"slowloris":   {74, "d78aa0a675ba627178ec9cf3552485dc63133e470b8c9ba8ff1780fb7b979138"},
		"portscan":    {1002, "b8281fc86331785621a1b746b356808f8e27b515bcadcab4c810ac50a34a6299"},
		"bruteforce":  {410, "7776a9b045a7c85dff78d2f495270a9c02fa5cbd475f0a543e05eb6193f3f45e"},
		"ackfinflood": {503, "1f01cf7378731a7447386b7fdf9d96258adee132848b9c3f5ac246306e4c2b27"},
		"memthrash":   {3264, "1aa74545c2e806f807196545ddf8cdfbc2ab2a2261c9b137e735e268656c669a"},
	}
	for _, c := range attackerCases {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv()
			sniff := netsim.NewNIC("sniff", 0x0200_0000_eeee)
			sniff.SetPromiscuous()
			h := sha256.New()
			frames := 0
			sniff.Rx = func(f netsim.Frame) {
				var at [8]byte
				binary.LittleEndian.PutUint64(at[:], uint64(e.eng.Now()))
				h.Write(at[:])
				h.Write(f.Data)
				frames++
			}
			e.hub.Attach(sniff)
			a, _, _ := c.make(e)
			a.Start()
			e.eng.Drain(sim.CyclesPerSecond)
			a.Stop()
			e.eng.Drain(2 * sim.CyclesPerSecond)
			got := hex.EncodeToString(h.Sum(nil))
			if w := want[c.name]; frames != w.frames || got != w.digest {
				t.Fatalf("trace = %d frames %s, want %d frames %s", frames, got, w.frames, w.digest)
			}
		})
	}
}

// TestAttackersStopBeforeResolve stops each attacker while its ARP
// request is still outstanding: the resolution that lands afterwards
// must not start the attack.
func TestAttackersStopBeforeResolve(t *testing.T) {
	for _, c := range attackerCases {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv()
			a, st, _ := c.make(e)
			a.Start()
			a.Stop()
			sent := st.NIC.TxFrames
			e.eng.Drain(sim.CyclesPerSecond)
			if n := st.NIC.TxFrames - sent; n != 0 {
				t.Errorf("%d frames sent after Stop", n)
			}
			if n := len(st.conns); n != 0 {
				t.Errorf("%d connections open after Stop", n)
			}
			if n := a.PendingEvents(); n != 0 {
				t.Errorf("PendingEvents = %d after Stop, want 0", n)
			}
		})
	}
}

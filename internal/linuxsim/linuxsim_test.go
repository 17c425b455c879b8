package linuxsim

import (
	"bytes"
	"testing"

	"repro/internal/cost"
	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	mbps100 = 100_000_000
)

var (
	serverIP  = lib.IPv4(10, 0, 0, 1)
	serverMAC = netsim.MAC(0x0200_0000_0001)
)

func newServer(eng *sim.Engine, hub *netsim.Hub) *Server {
	docs := map[string][]byte{
		"/doc1":   []byte("x"),
		"/doc10k": bytes.Repeat([]byte("x"), 10240),
	}
	return New(eng, cost.Default(), hub, serverIP, serverMAC, docs)
}

func client(eng *sim.Engine, hub *netsim.Hub, i int, doc string) *workload.Client {
	return workload.NewClient(eng, hub, "c", lib.IPv4(10, 0, 1, byte(i+1)),
		netsim.MAC(0x0200_0000_1000+uint64(i)), serverIP, doc, uint64(i+1))
}

func TestServesRequests(t *testing.T) {
	eng := sim.New()
	hub := netsim.NewHub(eng, mbps100, 3000)
	srv := newServer(eng, hub)
	c := client(eng, hub, 0, "/doc1")
	c.Start()
	eng.Drain(2 * sim.CyclesPerSecond)
	if c.Completed == 0 {
		t.Fatalf("no completions (failed=%d, synSeen=%d)", c.Failed, srv.SynSeen)
	}
	if srv.Completed == 0 || srv.Forks == 0 {
		t.Fatalf("server: completed=%d forks=%d", srv.Completed, srv.Forks)
	}
	if srv.OpenConns() > 1 {
		t.Fatalf("connection leak: %d open", srv.OpenConns())
	}
}

func TestSaturatesNearCalibratedRate(t *testing.T) {
	eng := sim.New()
	hub := netsim.NewHub(eng, mbps100, 3000)
	srv := newServer(eng, hub)
	for i := 0; i < 16; i++ {
		client(eng, hub, i, "/doc1").Start()
	}
	eng.Drain(1 * sim.CyclesPerSecond) // warm
	before := srv.Completed
	eng.Drain(4 * sim.CyclesPerSecond)
	rate := float64(srv.Completed-before) / 3.0
	// The paper's anchor: Apache on Linux near 400 conn/s, about half of
	// base Scout.
	if rate < 300 || rate > 520 {
		t.Fatalf("rate = %.0f conn/s, want ~400", rate)
	}
	if busy := float64(srv.busyTotal) / float64(eng.Now()); busy < 0.8 {
		t.Fatalf("server not CPU-saturated: %.2f busy", busy)
	}
}

func TestTenKTransfers(t *testing.T) {
	eng := sim.New()
	hub := netsim.NewHub(eng, mbps100, 3000)
	srv := newServer(eng, hub)
	c := client(eng, hub, 0, "/doc10k")
	var got int
	c.Start()
	eng.Drain(2 * sim.CyclesPerSecond)
	_ = got
	if c.Completed == 0 {
		t.Fatalf("no 10K completions (failed=%d)", c.Failed)
	}
	_ = srv
}

func TestNotFound(t *testing.T) {
	eng := sim.New()
	hub := netsim.NewHub(eng, mbps100, 3000)
	newServer(eng, hub)
	c := client(eng, hub, 0, "/missing")
	c.Start()
	eng.Drain(sim.CyclesPerSecond)
	// A 404 is still a completed connection.
	if c.Completed == 0 {
		t.Fatal("404 responses should still complete connections")
	}
}

func TestKillProcessCost(t *testing.T) {
	eng := sim.New()
	hub := netsim.NewHub(eng, mbps100, 3000)
	srv := newServer(eng, hub)
	if got := srv.KillProcess(); got != cost.Default().LinuxKill {
		t.Fatalf("kill cost = %d, want the Table 2 constant %d", got, cost.Default().LinuxKill)
	}
}

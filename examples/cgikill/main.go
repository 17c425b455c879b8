// Cgikill demonstrates the containment mechanism of §4.4.3: a runaway
// CGI request burns CPU without yielding; after 2 ms the kernel detects
// the violation and pathKill reclaims every resource the path owns in
// every protection domain — threads, semaphores, memory, IOBuffer
// holds, connection state — at a measured cycle cost (Table 2).
package main

import (
	"fmt"
	"log"

	"repro/internal/cost"
	"repro/internal/escort"
	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	eng := sim.New()
	hub := netsim.NewHub(eng, 100_000_000, 3000)

	// Worst case: every module in its own protection domain (Figure 3),
	// so the kill must sweep seven domains.
	srv, err := escort.NewServer(eng, cost.Default(), hub, escort.Options{
		Kind: escort.KindAccountingPD,
		Docs: map[string][]byte{"/": []byte("ok")},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()

	attacker := workload.NewCGIAttacker(eng, hub, "cgi-attacker",
		lib.IPv4(10, 0, 2, 1), netsim.MAC(0x0200_0000_2001), escort.ServerIP, 7)
	attacker.Start()

	client := workload.NewClient(eng, hub, "client",
		lib.IPv4(10, 0, 1, 1), netsim.MAC(0x0200_0000_1001),
		escort.ServerIP, "/", 1)
	client.Start()

	fmt.Println("running 5 simulated seconds with one CGI attacker (1 runaway/s)...")
	srv.Run(5 * sim.CyclesPerSecond)

	c := srv.Contain
	fmt.Printf("runaway scripts launched:  %d\n", attacker.Launched)
	fmt.Printf("paths killed:              %d\n", c.Kills)
	fmt.Printf("last pathKill cost:        %d cycles (%.3f ms)\n",
		c.LastKillCycles, c.LastKillCycles.Milliseconds())
	fmt.Printf("mean pathKill cost:        %d cycles\n", c.ReclaimedCycles/sim.Cycles(c.Kills))
	fmt.Printf("connection table entries:  %d (attacker state fully reclaimed)\n", srv.TCP.OpenConns())
	fmt.Printf("live threads:              %d\n", srv.K.LiveThreads())
	fmt.Printf("client kept being served:  %d requests\n", client.Completed)

	// Each attack cost the server ~2 ms of CPU before detection — the
	// budget the policy allows — plus the reclamation. Both are visible
	// per-owner in the ledger as dead "Active Path" owners.
	fmt.Printf("\neach runaway consumed its 2 ms budget (%d cycles) before detection\n",
		2*sim.CyclesPerMillisecond)
}

// Penaltybox demonstrates the alternative policy sketched in §4.4.4:
// "clients that have previously violated some resource bound — e.g. the
// CGI attackers in our example — can be identified and their future
// connection request packets demultiplexed to a different distinct
// passive path with a very small resource allocation." A repeat CGI
// offender is detected once, then every later connection it opens is
// classified to the penalty path at demultiplexing time and runs with a
// single scheduler ticket.
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

	srv, err := escort.NewServer(eng, cost.Default(), hub, escort.Options{
		Kind:       escort.KindAccounting,
		Docs:       map[string][]byte{"/": []byte("ok")},
		PenaltyBox: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()

	attackerIP := lib.IPv4(10, 0, 2, 1)
	attacker := workload.NewCGIAttacker(eng, hub, "repeat-offender",
		attackerIP, netsim.MAC(0x0200_0000_2001), escort.ServerIP, 7)
	attacker.Start()

	client := workload.NewClient(eng, hub, "client",
		lib.IPv4(10, 0, 1, 1), netsim.MAC(0x0200_0000_1001),
		escort.ServerIP, "/", 1)
	client.Start()

	fmt.Println("one CGI attacker, one honest client, 8 simulated seconds...")
	for s := 1; s <= 8; s++ {
		srv.Run(sim.CyclesPerSecond)
		boxed := srv.Penalty.IsOffender(attackerIP)
		fmt.Printf("t=%ds  kills=%-3d offenders=%-2d attackerBoxed=%-5v penaltyAccepts=%-3d clientReqs=%d\n",
			s, srv.Contain.Kills, srv.Penalty.Count(), boxed,
			srv.PenaltyListener.Accepted, client.Completed)
	}

	fmt.Println()
	fmt.Printf("the attacker's first runaway cost its 2 ms budget; after the kill its\n")
	fmt.Printf("address was boxed and %d later connection attempts were demultiplexed\n",
		srv.PenaltyListener.Accepted+srv.PenaltyListener.DroppedSyn)
	fmt.Printf("to the penalty passive path (cap %d half-open, 1 scheduler ticket),\n", 4)
	fmt.Printf("while the honest client completed %d requests undisturbed.\n", client.Completed)
}

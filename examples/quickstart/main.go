// Quickstart: boot an Escort web server with full resource accounting,
// point one client at it, serve a few requests, and print the
// per-owner accounting ledger — the paper's core mechanism visible in
// a dozen lines.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
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
		Kind: escort.KindAccounting,
		Docs: map[string][]byte{
			"/index.html": bytes.Repeat([]byte("hello from Escort\n"), 56),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()

	client := workload.NewClient(eng, hub, "client0",
		lib.IPv4(10, 0, 1, 1), netsim.MAC(0x0200_0000_1001),
		escort.ServerIP, "/index.html", 1)
	client.MaxRequests = 5
	client.Start()

	srv.Run(2 * sim.CyclesPerSecond)

	fmt.Printf("client completed %d requests, mean latency %.2f ms\n",
		client.Completed, client.MeanLatency().Milliseconds())
	fmt.Printf("server: %d connections established, %d completed, %d disk reads, %d cache hits\n\n",
		srv.TCP.Established, srv.TCP.Completed, srv.SCSI.Reads, srv.FS.Hits)

	fmt.Println("accounting ledger (cycles per owner group):")
	run := srv.K.Ledger().Snapshot(eng.Now()).Diff(core.Snapshot{})
	for _, r := range run.Sorted() {
		fmt.Printf("  %-32s %12d\n", r.Name, r.Cycles)
	}
	fmt.Printf("  %-32s %12d\n", "TOTAL (== wall clock)", run.Accounted())
	fmt.Printf("  wall clock: %d cycles — every cycle is attributed to an owner\n", eng.Now())
}

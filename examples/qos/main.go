// Qos demonstrates the guaranteed-bandwidth mechanism of §4.4.2: a
// 1 MBps TCP stream holds its rate within 1% of target under heavy
// best-effort load, because the proportional-share scheduler gives the
// stream's path a reserved allocation — accounting is what makes the
// guarantee enforceable.
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

	const target = 1 << 20 // 1 MByte/second
	srv, err := escort.NewServer(eng, cost.Default(), hub, escort.Options{
		Kind:       escort.KindAccounting,
		Docs:       map[string][]byte{"/doc1k": bytes.Repeat([]byte("x"), 1024)},
		QoSRateBps: target,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()

	// The stream receiver...
	recv := workload.NewQoSReceiver(eng, hub, "receiver",
		lib.IPv4(10, 0, 0, 2), netsim.MAC(0x0200_0000_0002), escort.ServerIP, 5)
	recv.Start()

	// ...and 16 best-effort clients hammering the server.
	var clients []*workload.Client
	for i := 0; i < 16; i++ {
		c := workload.NewClient(eng, hub, fmt.Sprintf("client%d", i),
			lib.IPv4(10, 0, 1, byte(i+1)), netsim.MAC(0x0200_0000_1000+uint64(i)),
			escort.ServerIP, "/doc1k", uint64(i)+1)
		clients = append(clients, c)
		c.Start()
	}

	fmt.Println("streaming 1 MBps to the receiver while 16 clients load the server...")
	for s := 1; s <= 6; s++ {
		srv.Run(sim.CyclesPerSecond)
		rate := recv.RateBps(sim.CyclesPerSecond)
		fmt.Printf("  t=%ds  stream %8.0f B/s (%+.2f%% of target)\n",
			s, rate, 100*(rate-target)/target)
	}

	var served uint64
	for _, c := range clients {
		served += c.Completed
	}
	fmt.Printf("\nbest-effort clients completed %d requests alongside the stream\n", served)
	fmt.Printf("stream delivered %d bytes total\n", recv.BytesReceived)

	// The reservation is visible in the ledger: the stream path, live for
	// the whole run, owns a large share of the charged cycles.
	for _, o := range srv.K.Ledger().Live() {
		if o.Type == core.PathOwner && o.Counters.Cycles > sim.CyclesPerSecond/2 {
			fmt.Printf("stream path %q consumed %.1f%% of all cycles\n",
				o.Name, 100*float64(o.Counters.Cycles)/float64(eng.Now()))
		}
	}
}

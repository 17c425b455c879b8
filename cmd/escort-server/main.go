// Command escort-server boots an Escort web server in a chosen
// configuration, drives it with a scripted mix of clients and attackers
// for a given number of simulated seconds, and prints a running report:
// throughput, attack statistics, containment events, and the final
// accounting ledger. It is the interactive tour of the system.
//
// Usage:
//
//	escort-server [-config scout|accounting|accounting_pd]
//	              [-seconds 10] [-clients 8] [-syn 1000] [-cgi 2] [-qos]
//	              [-trace out.json] [-trace-text out.txt]
//	              [-metrics out.csv] [-metrics-json out.json]
//
// -trace writes a Chrome trace_event JSON file (load it at
// https://ui.perfetto.dev or chrome://tracing; one "process" per
// protection domain, one track per owner). -metrics writes per-owner
// cycle/kmem/page time series sampled every 10 simulated ms; the
// per-owner cycle columns sum to the virtual clock at every tick.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/escort"
	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// openSink creates an output file for an observability flag, exiting
// on error. The returned writer is closed by Observer.Close.
func openSink(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	return f
}

func main() {
	cfgName := flag.String("config", "accounting", "scout, accounting, or accounting_pd")
	seconds := flag.Int("seconds", 10, "simulated seconds to run")
	clients := flag.Int("clients", 8, "best-effort clients")
	synRate := flag.Uint64("syn", 0, "SYN attack rate (SYNs/second, 0 = off)")
	cgi := flag.Int("cgi", 0, "CGI attackers (1 runaway/second each)")
	qos := flag.Bool("qos", false, "run the 1 MBps guaranteed stream")
	pf := flag.Bool("pathfinder", false, "pattern-based demultiplexing")
	penalty := flag.Bool("penaltybox", false, "demote repeat offenders to a penalty path")
	portFilter := flag.Bool("portfilter", false, "interpose the port-80 filter on the TCP/IP edge")
	verbose := flag.Bool("v", false, "kernel console output on stderr")
	traceJSON := flag.String("trace", "", "write Chrome trace_event JSON to this file")
	traceText := flag.String("trace-text", "", "write human-readable event log to this file")
	metricsCSV := flag.String("metrics", "", "write per-owner metrics CSV to this file")
	metricsJSON := flag.String("metrics-json", "", "write per-owner metrics JSON to this file")
	flag.Parse()

	var kind escort.Kind
	switch *cfgName {
	case "scout":
		kind = escort.KindScout
	case "accounting":
		kind = escort.KindAccounting
	case "accounting_pd":
		kind = escort.KindAccountingPD
	default:
		fmt.Fprintf(os.Stderr, "unknown config %q\n", *cfgName)
		os.Exit(2)
	}

	eng := sim.New()
	hub := netsim.NewHub(eng, 100_000_000, 3000)
	opts := escort.Options{
		Kind: kind,
		Docs: map[string][]byte{
			"/index.html": bytes.Repeat([]byte("x"), 1024),
		},
		SynCapUntrusted: 64,
		PathFinder:      *pf,
		PenaltyBox:      *penalty,
		PortFilter:      *portFilter,
	}
	if *qos {
		opts.QoSRateBps = 1 << 20
	}
	ocfg := &obs.Config{}
	wantObs := false
	if *verbose {
		ocfg.Console = os.Stderr
		wantObs = true
	}
	if *traceJSON != "" {
		ocfg.TraceJSON = openSink(*traceJSON)
		wantObs = true
	}
	if *traceText != "" {
		ocfg.TraceText = openSink(*traceText)
		wantObs = true
	}
	if *metricsCSV != "" {
		ocfg.MetricsCSV = openSink(*metricsCSV)
		wantObs = true
	}
	if *metricsJSON != "" {
		ocfg.MetricsJSON = openSink(*metricsJSON)
		wantObs = true
	}
	if wantObs {
		opts.Obs = ocfg
	}
	srv, err := escort.NewServer(eng, cost.Default(), hub, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()

	var cs []*workload.Client
	for i := 0; i < *clients; i++ {
		c := workload.NewClient(eng, hub, fmt.Sprintf("client%d", i),
			lib.IPv4(10, 0, 1, byte(i+1)), netsim.MAC(0x0200_0000_1000+uint64(i)),
			escort.ServerIP, "/index.html", uint64(i)+1)
		c.Think = 8 * sim.CyclesPerMillisecond
		cs = append(cs, c)
		c.Start()
	}
	var syn *workload.Flooder
	if *synRate > 0 {
		syn = workload.NewSynAttacker(eng, hub, "syn-attacker",
			lib.IPv4(192, 168, 9, 9), netsim.MAC(0x0200_0000_9999),
			escort.ServerIP, *synRate, 42)
		syn.Start()
	}
	for i := 0; i < *cgi; i++ {
		a := workload.NewCGIAttacker(eng, hub, fmt.Sprintf("cgi%d", i),
			lib.IPv4(10, 0, 2, byte(i+1)), netsim.MAC(0x0200_0000_2000+uint64(i)),
			escort.ServerIP, 7000+uint64(i))
		a.Start()
	}
	var recv *workload.QoSReceiver
	if *qos {
		recv = workload.NewQoSReceiver(eng, hub, "qos-receiver",
			lib.IPv4(10, 0, 0, 2), netsim.MAC(0x0200_0000_0002), escort.ServerIP, 5)
		recv.Start()
	}

	fmt.Printf("escort-server: %s configuration, %d clients", kind, *clients)
	if *synRate > 0 {
		fmt.Printf(", SYN flood %d/s", *synRate)
	}
	if *cgi > 0 {
		fmt.Printf(", %d CGI attackers", *cgi)
	}
	if *qos {
		fmt.Printf(", 1 MBps QoS stream")
	}
	fmt.Println()

	var lastCompleted uint64
	for s := 1; s <= *seconds; s++ {
		srv.Run(sim.CyclesPerSecond)
		var total uint64
		for _, c := range cs {
			total += c.Completed
		}
		line := fmt.Sprintf("t=%2ds  %5d conn/s", s, total-lastCompleted)
		lastCompleted = total
		if syn != nil {
			line += fmt.Sprintf("  synDrops=%d", srv.Untrusted.DroppedSyn)
		}
		if srv.Contain != nil && srv.Contain.Kills > 0 {
			line += fmt.Sprintf("  kills=%d (last %d cycles)",
				srv.Contain.Kills, srv.Contain.LastKillCycles)
		}
		if recv != nil {
			line += fmt.Sprintf("  qos=%.2fMBps", recv.RateBps(sim.CyclesPerSecond)/(1<<20))
		}
		fmt.Println(line)
	}

	fmt.Println("\nfinal accounting ledger (top owners by cycles):")
	// The whole run is one delta from an empty snapshot.
	run := srv.K.Ledger().Snapshot(eng.Now()).Diff(core.Snapshot{})
	total := run.Accounted()
	for i, r := range run.Sorted() {
		if i >= 12 {
			break
		}
		fmt.Printf("  %-36s %14d (%.1f%%)\n", r.Name, r.Cycles, 100*float64(r.Cycles)/float64(total))
	}
	fmt.Printf("  %-36s %14d\n", "TOTAL (== virtual clock)", total)

	// Flush and close the observability sinks (Stop first so the
	// metrics series carries a final sample at the end of the run).
	srv.Stop()
	if err := srv.Obs.Close(); err != nil {
		log.Fatal(err)
	}
	if *traceJSON != "" || *traceText != "" {
		fmt.Printf("\ntrace: %d events", srv.Obs.Tracer.Events())
		if *traceJSON != "" {
			fmt.Printf(" -> %s (load at https://ui.perfetto.dev)", *traceJSON)
		}
		fmt.Println()
	}
	if *metricsCSV != "" || *metricsJSON != "" {
		fmt.Printf("metrics: %d samples", srv.Obs.Metrics.Len())
		if *metricsCSV != "" {
			fmt.Printf(" -> %s", *metricsCSV)
		}
		fmt.Println()
	}
}

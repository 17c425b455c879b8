package experiment

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/experiment/runner"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Scale sets the durations and sweep sizes of the experiments. The
// paper measured ten-second averages after one minute of load; in a
// deterministic simulation steady state arrives as soon as the block
// cache is warm, so the default warm-up is shorter (recorded in
// EXPERIMENTS.md).
type Scale struct {
	Warm    sim.Cycles
	Window  sim.Cycles
	Clients []int
	CGICnts []int

	// Workers is the number of concurrent OS-level workers the figure
	// sweeps fan their points out across; 0 or 1 runs serially. Every
	// sweep point is an independent simulation with its own engine and
	// seeded RNGs, so results are identical at any setting (the parallel
	// determinism test asserts this byte-for-byte).
	Workers int

	// Obs, when non-nil, is asked for an observability config for each
	// figure run; the label encodes figure, document, configuration and
	// sweep point (e.g. "fig8-doc1-Accounting-c8"). Table runs stay
	// unobserved: their measurement is the ledger itself. With
	// Workers > 1 the factory is called from multiple goroutines and
	// must be safe for concurrent use.
	Obs ObsFactory

	// Faults, when non-nil, applies the same fault spec to every figure
	// run (each testbed derives its own injector from the spec's seed,
	// so points stay independent and deterministic under Workers > 1).
	// Table runs stay fault-free: they measure the intrinsic costs.
	Faults *fault.Spec
}

// PaperScale approximates the paper's sweep.
func PaperScale() Scale {
	return Scale{
		Warm:    3 * sim.CyclesPerSecond,
		Window:  10 * sim.CyclesPerSecond,
		Clients: []int{1, 2, 4, 8, 16, 32, 48, 64},
		CGICnts: []int{0, 1, 10, 25, 50},
	}
}

// QuickScale runs reduced sweeps for tests and benchmarks.
func QuickScale() Scale {
	return Scale{
		Warm:    sim.CyclesPerSecond / 2,
		Window:  2 * sim.CyclesPerSecond,
		Clients: []int{1, 4, 16},
		CGICnts: []int{0, 10},
	}
}

// runs gives every load sc's warm-up and window, its fault spec, and
// opt.
func (sc Scale) runs(opt Options, loads []Load) []Run {
	opt.Faults = sc.Faults
	out := make([]Run, len(loads))
	for i, l := range loads {
		out[i] = Run{Load: l, Options: opt, Warm: sc.Warm, Window: sc.Window}
	}
	return out
}

// sweep measures every run on sc.Workers workers, naming each run's
// observability sinks by label. Every run builds its own testbed, so
// the rows are identical at any worker count.
func sweep(sc Scale, runs []Run, label func(Load) string) ([]Row, error) {
	return runner.MapErr(len(runs), sc.Workers, func(i int) (Row, error) {
		r := runs[i]
		if sc.Obs != nil {
			r.Obs = sc.Obs(label(r.Load))
		}
		row, _, err := Measure(r)
		return row, err
	})
}

// cross sets every variant on every document and configuration, in
// that nesting order.
func cross(docs []DocSpec, configs []Config, variants []Load) []Load {
	var pts []Load
	for _, doc := range docs {
		for _, cfg := range configs {
			for _, v := range variants {
				v.Doc, v.Config = doc, cfg
				pts = append(pts, v)
			}
		}
	}
	return pts
}

// withAndWithout lists every client count without the extra load, then
// every client count with it.
func withAndWithout(clients []int, load func(*Load)) []Load {
	var vs []Load
	for _, on := range []bool{false, true} {
		for _, n := range clients {
			r := Load{Clients: n}
			if on {
				load(&r)
			}
			vs = append(vs, r)
		}
	}
	return vs
}

// defended are the two configurations Figures 9–11 evaluate.
var defended = []Config{ConfigAccounting, ConfigAccountingPD}

// docTag is a point's document in run labels ("doc1").
func docTag(l Load) string { return strings.TrimPrefix(l.Doc.Name, "/") }

// Fig8 reproduces Figure 8: the basic performance of the four
// configurations in connections/second for 1 B, 1 KB and 10 KB
// documents across the client sweep.
func Fig8(sc Scale, docs []DocSpec, configs []Config) ([]Row, error) {
	return sweep(sc, fig8Runs(sc, docs, configs), func(l Load) string {
		return fmt.Sprintf("fig8-%s-%s-c%d", docTag(l), l.Config, l.Clients)
	})
}

func fig8Runs(sc Scale, docs []DocSpec, configs []Config) []Run {
	var vs []Load
	for _, n := range sc.Clients {
		vs = append(vs, Load{Clients: n})
	}
	return sc.runs(Options{}, cross(docs, configs, vs))
}

// FormatFig8 renders the rows as one table per document.
func FormatFig8(rows []Row) string {
	var b strings.Builder
	for _, doc := range docsOf(rows) {
		fmt.Fprintf(&b, "Figure 8: connections/second, %s document\n", doc.Label)
		configs := distinct(rows, func(r Row) Config { return r.Config })
		fmt.Fprintf(&b, "%8s", "#clients")
		for _, c := range configs {
			fmt.Fprintf(&b, " %14s", c)
		}
		b.WriteByte('\n')
		for _, n := range clientsOf(rows) {
			fmt.Fprintf(&b, "%8d", n)
			for _, c := range configs {
				fmt.Fprintf(&b, " %14.1f", find(rows, Load{Config: c, Doc: doc, Clients: n}).ConnPS)
			}
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// distinct returns key's values over rows in first-seen order.
func distinct[K comparable](rows []Row, key func(Row) K) []K {
	seen := map[K]bool{}
	var out []K
	for _, r := range rows {
		if k := key(r); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// docsOf lists the rows' documents in first-seen order.
func docsOf(rows []Row) []DocSpec { return distinct(rows, func(r Row) DocSpec { return r.Doc }) }

// clientsOf lists the rows' client counts in ascending order.
func clientsOf(rows []Row) []int {
	out := distinct(rows, func(r Row) int { return r.Clients })
	sort.Ints(out)
	return out
}

// find returns the row whose load equals want, or the zero Row.
func find(rows []Row, want Load) Row {
	for _, r := range rows {
		if r.Load == want {
			return r
		}
	}
	return Row{}
}

// Table1 is the accounting-accuracy breakdown (§4.3.1): average cycles
// per serial one-byte request, attributed per owner.
type Table1 struct {
	Config        Config
	Requests      uint64
	TotalMeasured sim.Cycles
	Rows          []Table1Row
	Accounted     sim.Cycles
}

// Table1Row is one owner row.
type Table1Row struct {
	Owner  string
	Cycles sim.Cycles // per request
}

// RunTable1 reproduces Table 1 for one configuration: n serial requests
// for a one-byte document from a single client, every cycle attributed.
func RunTable1(cfg Config, n uint64) (*Table1, error) {
	tb, err := NewTestbed(cfg, Options{})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	tb.AddClients(1, Doc1B.Name)
	client := tb.Clients[0]
	client.MaxRequests = 1 + n // one warm-up request, then the measured n
	// The paper's Table 1 measurement window runs from SYN accept to the
	// final FIN acknowledgment, excluding client turnaround, so the
	// serial client here runs back-to-back.
	client.Think = 0

	// Warm up: first request loads the block cache and the ARP tables.
	for i := 0; i < 1000 && client.Completed < 1; i++ {
		tb.RunFor(10 * sim.CyclesPerMillisecond)
	}
	if client.Completed < 1 {
		return nil, fmt.Errorf("table1: warm-up request never completed")
	}
	before := tb.Escort.K.Ledger().Snapshot(tb.Eng.Now())
	for i := 0; i < 100_000 && client.Completed < 1+n; i++ {
		tb.RunFor(10 * sim.CyclesPerMillisecond)
	}
	if client.Completed < 1+n {
		return nil, fmt.Errorf("table1: only %d of %d requests completed", client.Completed-1, n)
	}
	after := tb.Escort.K.Ledger().Snapshot(tb.Eng.Now())
	d := after.Diff(before)

	// Group owners into the paper's rows.
	groups := map[string]sim.Cycles{}
	for name, cyc := range d.ByOwner {
		groups[table1Group(name)] += cyc
	}
	t := &Table1{Config: cfg, Requests: n, TotalMeasured: d.Measured / sim.Cycles(n)}
	order := []string{"Idle", "Passive SYN Path", "Main Active Path", "TCP Master Event", "Softclock", "Other"}
	for _, g := range order {
		cyc, ok := groups[g]
		if !ok {
			continue
		}
		t.Rows = append(t.Rows, Table1Row{Owner: g, Cycles: cyc / sim.Cycles(n)})
		t.Accounted += cyc / sim.Cycles(n)
	}
	return t, nil
}

func table1Group(owner string) string {
	switch {
	case owner == "Idle", owner == "Softclock", owner == "TCP Master Event":
		return owner
	case strings.HasPrefix(owner, "Passive SYN Path"):
		return "Passive SYN Path"
	case strings.HasPrefix(owner, "Active Path"):
		return "Main Active Path"
	}
	return "Other"
}

// Format renders the table in the paper's layout.
func (t *Table1) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 (%s): average cycles per serial 1-byte request (n=%d)\n", t.Config, t.Requests)
	fmt.Fprintf(&b, "  %-22s %12d\n", "Total Measured", t.TotalMeasured)
	for _, r := range t.Rows {
		pct := 100 * float64(r.Cycles) / float64(t.TotalMeasured)
		fmt.Fprintf(&b, "  %-22s %12d (%2.0f%%)\n", r.Owner, r.Cycles, pct)
	}
	pct := 100 * float64(t.Accounted) / float64(t.TotalMeasured)
	fmt.Fprintf(&b, "  %-22s %12d (%2.0f%%)\n", "Total Accounted", t.Accounted, pct)
	return b.String()
}

// Table2Row is one configuration's cost to destroy a non-cooperative
// path (§4.3.2).
type Table2Row struct {
	Config Config
	Cycles sim.Cycles
}

// RunTable2 reproduces Table 2: a client requests a runaway CGI
// document; the policy detects it after 2 ms and pathKill reclaims
// everything; the reclamation cycles are the measurement. The Linux row
// is the kill/waitpid cost model, reported — as in the paper — only as
// a general point of reference.
func RunTable2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, cfg := range []Config{ConfigAccounting, ConfigAccountingPD} {
		tb, err := NewTestbed(cfg, Options{})
		if err != nil {
			return nil, err
		}
		tb.AddCGIAttackers(1)
		for i := 0; i < 10_000 && tb.Escort.Contain.Kills == 0; i++ {
			tb.RunFor(10 * sim.CyclesPerMillisecond)
		}
		if tb.Escort.Contain.Kills == 0 {
			tb.Close()
			return nil, fmt.Errorf("table2: %s never contained the runaway", cfg)
		}
		rows = append(rows, Table2Row{Config: cfg, Cycles: tb.Escort.Contain.LastKillCycles})
		tb.Close()
	}
	lb, err := NewTestbed(ConfigLinux, Options{})
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table2Row{Config: ConfigLinux, Cycles: lb.Linux.KillProcess()})
	return rows, nil
}

// FormatTable2 renders the rows.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: cycles needed to destroy a non-cooperative path\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %12d\n", r.Config, r.Cycles)
	}
	return b.String()
}

// synFlood is Figure 9's attack rate from the untrusted subnet.
const synFlood = 1000

// Fig9 reproduces Figure 9: best-effort performance under a 1000 SYN/s
// attack from the untrusted subnet, with the §4.4.1 policy (separate
// passive paths; drop over-budget SYNs at demux).
func Fig9(sc Scale, docs []DocSpec) ([]Row, error) {
	return sweep(sc, fig9Runs(sc, docs), func(l Load) string {
		return fmt.Sprintf("fig9-%s-%s-c%d-attack%v", docTag(l), l.Config, l.Clients, l.SynRate > 0)
	})
}

func fig9Runs(sc Scale, docs []DocSpec) []Run {
	vs := withAndWithout(sc.Clients, func(l *Load) { l.SynRate = synFlood })
	return sc.runs(Options{SynCapUntrusted: 64}, cross(docs, defended, vs))
}

// FormatFig9 renders the figure as tables with slowdown columns.
func FormatFig9(rows []Row) string {
	var b strings.Builder
	for _, doc := range docsOf(rows) {
		fmt.Fprintf(&b, "Figure 9: %s document, 1000 SYN/s untrusted attack\n", doc.Label)
		fmt.Fprintf(&b, "%8s %16s %16s %9s %16s %16s %9s\n", "#clients",
			"Acct", "Acct+SYN", "slow%", "Acct_PD", "Acct_PD+SYN", "slow%")
		for _, n := range clientsOf(rows) {
			rate := func(cfg Config, syn uint64) float64 {
				return find(rows, Load{Config: cfg, Doc: doc, Clients: n, SynRate: syn}).ConnPS
			}
			a, aa := rate(ConfigAccounting, 0), rate(ConfigAccounting, synFlood)
			p, pa := rate(ConfigAccountingPD, 0), rate(ConfigAccountingPD, synFlood)
			fmt.Fprintf(&b, "%8d %16.1f %16.1f %8.1f%% %16.1f %16.1f %8.1f%%\n",
				n, a, aa, slowdown(a, aa), p, pa, slowdown(p, pa))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// QoSTarget is the paper's guaranteed stream rate: 1 MByte/second.
const QoSTarget = 1 << 20

// Fig10 reproduces Figure 10: the impact of one guaranteed 1 MBps
// stream on best-effort traffic, and the stream's own fidelity (the
// paper: always within 1% of target).
func Fig10(sc Scale, docs []DocSpec) ([]Row, error) {
	return sweep(sc, fig10Runs(sc, docs), func(l Load) string {
		return fmt.Sprintf("fig10-%s-%s-c%d-stream%v", docTag(l), l.Config, l.Clients, l.Stream)
	})
}

func fig10Runs(sc Scale, docs []DocSpec) []Run {
	vs := withAndWithout(sc.Clients, func(l *Load) { l.Stream = true })
	return sc.runs(Options{QoSRateBps: QoSTarget}, cross(docs, defended, vs))
}

// FormatFig10 renders the figure; the error column is the worse of the
// two configurations' streams.
func FormatFig10(rows []Row) string {
	var b strings.Builder
	for _, doc := range docsOf(rows) {
		fmt.Fprintf(&b, "Figure 10: %s document, 1 MBps QoS stream\n", doc.Label)
		fmt.Fprintf(&b, "%8s %14s %14s %9s %14s %14s %9s %10s\n", "#clients",
			"Acct", "Acct+QoS", "slow%", "Acct_PD", "Acct_PD+QoS", "slow%", "QoS err%")
		for _, n := range clientsOf(rows) {
			a := find(rows, Load{Config: ConfigAccounting, Doc: doc, Clients: n})
			aq := find(rows, Load{Config: ConfigAccounting, Doc: doc, Clients: n, Stream: true})
			p := find(rows, Load{Config: ConfigAccountingPD, Doc: doc, Clients: n})
			pq := find(rows, Load{Config: ConfigAccountingPD, Doc: doc, Clients: n, Stream: true})
			worst := max(qosErrPct(aq.QoSRate), qosErrPct(pq.QoSRate))
			fmt.Fprintf(&b, "%8d %14.1f %14.1f %8.1f%% %14.1f %14.1f %8.1f%% %9.2f%%\n",
				n, a.ConnPS, aq.ConnPS, slowdown(a.ConnPS, aq.ConnPS),
				p.ConnPS, pq.ConnPS, slowdown(p.ConnPS, pq.ConnPS), worst)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig11 reproduces Figure 11: a fixed client count, the 1 MBps stream,
// and 1-50 CGI attackers launching one runaway per second. Each runaway
// burns 2 ms of CPU before detection; pathKill then reclaims
// everything. The QoS stream must stay within 1% throughout.
func Fig11(sc Scale, docs []DocSpec, clients int) ([]Row, error) {
	return sweep(sc, fig11Runs(sc, docs, clients), func(l Load) string {
		return fmt.Sprintf("fig11-%s-%s-cgi%d", docTag(l), l.Config, l.CGI)
	})
}

func fig11Runs(sc Scale, docs []DocSpec, clients int) []Run {
	var vs []Load
	for _, atk := range sc.CGICnts {
		vs = append(vs, Load{Clients: clients, Stream: true, CGI: atk})
	}
	return sc.runs(Options{QoSRateBps: QoSTarget}, cross(docs, defended, vs))
}

// FormatFig11 renders the figure.
func FormatFig11(rows []Row, clients int) string {
	var b strings.Builder
	for _, doc := range docsOf(rows) {
		fmt.Fprintf(&b, "Figure 11: %s document, %d clients, 1 MBps stream, CGI attackers\n", doc.Label, clients)
		fmt.Fprintf(&b, "%10s %14s %10s %10s %14s %10s %10s\n", "#attackers",
			"Acct c/s", "QoS err%", "kills", "Acct_PD c/s", "QoS err%", "kills")
		atks := distinct(rows, func(r Row) int { return r.CGI })
		sort.Ints(atks)
		for _, atk := range atks {
			a := find(rows, Load{Config: ConfigAccounting, Doc: doc, Clients: clients, Stream: true, CGI: atk})
			p := find(rows, Load{Config: ConfigAccountingPD, Doc: doc, Clients: clients, Stream: true, CGI: atk})
			fmt.Fprintf(&b, "%10d %14.1f %9.2f%% %10d %14.1f %9.2f%% %10d\n",
				atk, a.ConnPS, qosErrPct(a.QoSRate), a.Kills,
				p.ConnPS, qosErrPct(p.QoSRate), p.Kills)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// qosErrPct is a stream's deviation from QoSTarget in percent. A rate
// of 0 is a dead stream: 100%.
func qosErrPct(rate float64) float64 {
	e := (rate - QoSTarget) / QoSTarget * 100
	if e < 0 {
		return -e
	}
	return e
}

func slowdown(base, loaded float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (base - loaded) / base
}

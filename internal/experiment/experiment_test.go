package experiment

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

func tinyScale() Scale {
	return Scale{
		Warm:    sim.CyclesPerSecond / 2,
		Window:  sim.CyclesPerSecond,
		Clients: []int{2},
		CGICnts: []int{0, 5},
	}
}

func TestAllConfigsServeTraffic(t *testing.T) {
	for _, cfg := range AllConfigs {
		cfg := cfg
		t.Run(string(cfg), func(t *testing.T) {
			tb, err := NewTestbed(cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			tb.AddClients(2, Doc1K.Name)
			rate := tb.MeasureRate(sim.CyclesPerSecond/2, sim.CyclesPerSecond)
			if rate <= 0 {
				t.Fatalf("config %s served no traffic", cfg)
			}
		})
	}
}

func TestConfigOrderingHolds(t *testing.T) {
	// The paper's central throughput ordering: Scout > Accounting >
	// Linux > Accounting_PD (Figure 8, small documents, enough clients).
	rates := map[Config]float64{}
	for _, cfg := range AllConfigs {
		tb, err := NewTestbed(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tb.AddClients(8, Doc1B.Name)
		rates[cfg] = tb.MeasureRate(sim.CyclesPerSecond, 2*sim.CyclesPerSecond)
		tb.Close()
	}
	t.Logf("rates: %v", rates)
	if !(rates[ConfigScout] > rates[ConfigAccounting]) {
		t.Errorf("Scout (%.0f) not faster than Accounting (%.0f)", rates[ConfigScout], rates[ConfigAccounting])
	}
	if !(rates[ConfigAccounting] > rates[ConfigLinux]) {
		t.Errorf("Accounting (%.0f) not faster than Linux (%.0f)", rates[ConfigAccounting], rates[ConfigLinux])
	}
	if !(rates[ConfigLinux] > rates[ConfigAccountingPD]) {
		t.Errorf("Linux (%.0f) not faster than Accounting_PD (%.0f)", rates[ConfigLinux], rates[ConfigAccountingPD])
	}
	// Accounting overhead is modest (paper: ~8%); protection domains are
	// expensive (paper: over 4x).
	acctOverhead := (rates[ConfigScout] - rates[ConfigAccounting]) / rates[ConfigScout]
	if acctOverhead < 0.02 || acctOverhead > 0.25 {
		t.Errorf("accounting overhead = %.1f%%, want modest (paper ~8%%)", 100*acctOverhead)
	}
	pdFactor := rates[ConfigAccounting] / rates[ConfigAccountingPD]
	if pdFactor < 2 {
		t.Errorf("PD slowdown factor = %.1fx, want substantial (paper >4x)", pdFactor)
	}
}

func TestTable1AccountsEverything(t *testing.T) {
	for _, cfg := range []Config{ConfigAccounting, ConfigAccountingPD} {
		cfg := cfg
		t.Run(string(cfg), func(t *testing.T) {
			tab, err := RunTable1(cfg, 20)
			if err != nil {
				t.Fatal(err)
			}
			if tab.TotalMeasured == 0 {
				t.Fatal("nothing measured")
			}
			// The paper's headline: virtually 100% of cycles accounted.
			ratio := float64(tab.Accounted) / float64(tab.TotalMeasured)
			if ratio < 0.999 || ratio > 1.001 {
				t.Fatalf("accounted/measured = %.4f, want 1.0\n%s", ratio, tab.Format())
			}
			// The active path dominates non-idle cycles (paper: >92%).
			var idle, active, nonIdle sim.Cycles
			for _, r := range tab.Rows {
				switch r.Owner {
				case "Idle":
					idle = r.Cycles
				default:
					nonIdle += r.Cycles
					if r.Owner == "Main Active Path" {
						active = r.Cycles
					}
				}
			}
			_ = idle
			if nonIdle == 0 || float64(active)/float64(nonIdle) < 0.7 {
				t.Fatalf("active path share = %.2f of non-idle, want dominant\n%s",
					float64(active)/float64(nonIdle), tab.Format())
			}
			if !strings.Contains(tab.Format(), "Total Accounted") {
				t.Fatal("format missing accounting row")
			}
		})
	}
}

func TestTable1PDCostsMore(t *testing.T) {
	acct, err := RunTable1(ConfigAccounting, 15)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := RunTable1(ConfigAccountingPD, 15)
	if err != nil {
		t.Fatal(err)
	}
	nonIdle := func(tb *Table1) sim.Cycles {
		var n sim.Cycles
		for _, r := range tb.Rows {
			if r.Owner != "Idle" {
				n += r.Cycles
			}
		}
		return n
	}
	a, p := nonIdle(acct), nonIdle(pd)
	if p < a*2 {
		t.Fatalf("PD non-idle per request = %d, accounting = %d; want >2x (paper ~2.8x)", p, a)
	}
}

func TestTable2Ordering(t *testing.T) {
	rows, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	var acct, pd, linux sim.Cycles
	for _, r := range rows {
		switch r.Config {
		case ConfigAccounting:
			acct = r.Cycles
		case ConfigAccountingPD:
			pd = r.Cycles
		case ConfigLinux:
			linux = r.Cycles
		}
	}
	if acct == 0 || pd == 0 || linux == 0 {
		t.Fatalf("missing rows: %v", rows)
	}
	// Paper: 17,951 / 111,568 / 11,003 — PD reclamation is several times
	// the single-domain cost; Linux's bare kill is cheapest.
	if pd < 3*acct {
		t.Errorf("PD kill %d < 3x accounting kill %d (paper ~6x)", pd, acct)
	}
	if linux > acct {
		t.Errorf("Linux kill %d > Escort accounting kill %d; paper has Linux cheapest", linux, acct)
	}
	if FormatTable2(rows) == "" {
		t.Fatal("empty format")
	}
}

func TestFig9SynAttackImpact(t *testing.T) {
	sc := tinyScale()
	sc.Clients = []int{4}
	rows, err := Fig9(sc, []DocSpec{Doc1B})
	if err != nil {
		t.Fatal(err)
	}
	rate := func(cfg Config, syn uint64) float64 {
		return find(rows, Load{Config: cfg, Doc: Doc1B, Clients: 4, SynRate: syn}).ConnPS
	}
	a, aa := rate(ConfigAccounting, 0), rate(ConfigAccounting, synFlood)
	p, pa := rate(ConfigAccountingPD, 0), rate(ConfigAccountingPD, synFlood)
	if a == 0 || aa == 0 || p == 0 || pa == 0 {
		t.Fatalf("missing rates: %v %v %v %v", a, aa, p, pa)
	}
	// Paper: Accounting slows < 5%, Accounting_PD < 15%. Allow slack at
	// tiny scale but insist the attack does not devastate either.
	if s := slowdown(a, aa); s > 12 {
		t.Errorf("Accounting slowdown under SYN flood = %.1f%%, paper <5%%", s)
	}
	if s := slowdown(p, pa); s > 30 {
		t.Errorf("Accounting_PD slowdown under SYN flood = %.1f%%, paper <15%%", s)
	}
	// The PD configuration suffers more (TLB misses during demux).
	if slowdown(p, pa) < slowdown(a, aa)-1 {
		t.Errorf("PD slowdown (%.1f%%) not above accounting slowdown (%.1f%%)",
			slowdown(p, pa), slowdown(a, aa))
	}
	if FormatFig9(rows) == "" {
		t.Fatal("empty format")
	}
}

func TestFig10QoSHolds(t *testing.T) {
	sc := tinyScale()
	sc.Clients = []int{8}
	sc.Window = 3 * sim.CyclesPerSecond
	rows, err := Fig10(sc, []DocSpec{Doc1B})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Stream {
			continue
		}
		if e := (r.QoSRate - QoSTarget) / QoSTarget; e < -0.02 || e > 0.05 {
			t.Errorf("%s: QoS error %.3f outside band (rate %.0f)", r.Config, e, r.QoSRate)
		}
	}
	// Best effort slows when the stream runs.
	a := find(rows, Load{Config: ConfigAccounting, Doc: Doc1B, Clients: 8}).ConnPS
	aq := find(rows, Load{Config: ConfigAccounting, Doc: Doc1B, Clients: 8, Stream: true}).ConnPS
	if aq >= a {
		t.Errorf("QoS stream did not cost best-effort anything: %f vs %f", aq, a)
	}
	if FormatFig10(rows) == "" {
		t.Fatal("empty format")
	}
}

func TestFig11CGIAttackDegradesGracefully(t *testing.T) {
	sc := tinyScale()
	sc.Window = 3 * sim.CyclesPerSecond
	sc.CGICnts = []int{0, 10}
	rows, err := Fig11(sc, []DocSpec{Doc1B}, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := find(rows, Load{Config: ConfigAccounting, Doc: Doc1B, Clients: 8, Stream: true})
	loaded := find(rows, Load{Config: ConfigAccounting, Doc: Doc1B, Clients: 8, Stream: true, CGI: 10})
	if base.ConnPS == 0 || loaded.ConnPS == 0 {
		t.Fatalf("missing rates: %+v %+v", base, loaded)
	}
	if loaded.ConnPS >= base.ConnPS {
		t.Error("CGI attackers cost nothing; they must consume 2ms each")
	}
	if loaded.Kills == 0 {
		t.Error("no runaways contained")
	}
	// QoS holds under attack (paper: within 1%).
	if e := qosErrPct(loaded.QoSRate); e > 5 {
		t.Errorf("QoS error %.2f%% under CGI attack", e)
	}
	if FormatFig11(rows, 8) == "" {
		t.Fatal("empty format")
	}
}

// TestFormatDeadStreamIs100PercentError: a receiver that measured
// nothing is a dead stream, not a perfect one, in both QoS figures.
func TestFormatDeadStreamIs100PercentError(t *testing.T) {
	var rows []Row
	for _, cfg := range defended {
		rows = append(rows, Row{Load: Load{Config: cfg, Doc: Doc1B, Clients: 4, Stream: true}, ConnPS: 100})
	}
	if out := FormatFig11(rows, 4); !strings.Contains(out, "100.00%") {
		t.Errorf("Figure 11 shows a dead stream as:\n%s", out)
	}
	if out := FormatFig10(rows); !strings.Contains(out, "100.00%") {
		t.Errorf("Figure 10 shows a dead stream as:\n%s", out)
	}
}

// figuresDigest is the sha256 of the output TestFigureOutputDigest
// formats, taken before the figures shared one Row and one Measure.
const figuresDigest = "81d482ed904958414098a556d7c3fd65da677e32ad0b9e486d5eef9714e567cc"

// TestFigureOutputDigest formats every figure and table at a small
// scale and pins the output byte for byte: the quick check that a
// change left simulated output alone.
func TestFigureOutputDigest(t *testing.T) {
	sc := Scale{
		Warm:    sim.CyclesPerSecond / 10,
		Window:  sim.CyclesPerSecond / 2,
		Clients: []int{1, 4},
		CGICnts: []int{0, 2},
		Workers: 2,
	}
	var b strings.Builder
	f8, err := Fig8(sc, []DocSpec{Doc1B, Doc1K, Doc10K}, AllConfigs)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatFig8(f8))
	for _, cfg := range defended {
		tab, err := RunTable1(cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tab.Format())
	}
	t2, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatTable2(t2))
	docs := []DocSpec{Doc1B, Doc10K}
	f9, err := Fig9(sc, docs)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatFig9(f9))
	f10, err := Fig10(sc, docs)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatFig10(f10))
	f11, err := Fig11(sc, docs, 4)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatFig11(f11, 4))
	out := b.String()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != figuresDigest {
		t.Fatalf("figure output digest = %s, want %s\n%s", got, figuresDigest, out)
	}
}

func TestFig8SmokeAndFormat(t *testing.T) {
	sc := tinyScale()
	rows, err := Fig8(sc, []DocSpec{Doc1B}, []Config{ConfigScout, ConfigLinux})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := FormatFig8(rows)
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "Scout") {
		t.Fatalf("format:\n%s", out)
	}
}

// TestDeterminism: the whole stack — engine, kernel, coroutine threads,
// network, workloads — must be bit-for-bit reproducible: two identical
// testbeds end in identical states. This is the property that makes
// every number in EXPERIMENTS.md exactly repeatable.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, sim.Cycles) {
		tb, err := NewTestbed(ConfigAccounting, Options{QoSRateBps: QoSTarget, SynCapUntrusted: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		tb.AddClients(8, Doc1K.Name)
		tb.AddSynAttacker(500)
		tb.AddCGIAttackers(2)
		tb.AddQoSReceiver()
		tb.RunFor(3 * sim.CyclesPerSecond)
		var cycles sim.Cycles
		for _, c := range tb.Escort.K.Ledger().Snapshot(tb.Eng.Now()).Cycles {
			cycles += c
		}
		return tb.TotalCompleted(), tb.Escort.Contain.Kills, cycles
	}
	c1, k1, cy1 := run()
	c2, k2, cy2 := run()
	if c1 != c2 || k1 != k2 || cy1 != cy2 {
		t.Fatalf("nondeterminism: completions %d/%d kills %d/%d cycles %d/%d",
			c1, c2, k1, k2, cy1, cy2)
	}
	if c1 == 0 {
		t.Fatal("no traffic in determinism run")
	}
}

// TestLedgerConservationUnderFullLoad: the Table 1 invariant holds even
// with every load type active at once.
func TestLedgerConservationUnderFullLoad(t *testing.T) {
	tb, err := NewTestbed(ConfigAccountingPD, Options{QoSRateBps: QoSTarget, SynCapUntrusted: 64, PathFinder: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	before := tb.Escort.K.Ledger().Snapshot(tb.Eng.Now())
	tb.AddClients(8, Doc10K.Name)
	tb.AddSynAttacker(1000)
	tb.AddCGIAttackers(3)
	tb.AddQoSReceiver()
	tb.RunFor(3 * sim.CyclesPerSecond)
	after := tb.Escort.K.Ledger().Snapshot(tb.Eng.Now())
	if d := after.Diff(before); d.Unaccounted() != 0 {
		t.Fatalf("unaccounted = %d of %d", d.Unaccounted(), d.Measured)
	}
}

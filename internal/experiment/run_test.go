package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestParseRunRejects: a run spec is outside input, so counts past the
// station addressing plan, unknown names, negative counts and an empty
// window must be refused with an error naming the problem, while the
// counts at the plan's limits are accepted.
func TestParseRunRejects(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want string // error substring; "" accepts
	}{
		{"config=Accounting,doc=/doc1", ""},
		{fmt.Sprintf("config=Accounting,doc=/doc1,clients=%d", maxClients), ""},
		{fmt.Sprintf("config=Accounting,doc=/doc1,clients=%d", maxClients+1), fmt.Sprintf("addressing plan's %d", maxClients)},
		{"config=Accounting,doc=/doc1,clients=49751", fmt.Sprintf("addressing plan's %d", maxClients)},
		{fmt.Sprintf("config=Accounting,doc=/doc1,cgi=%d", maxCGI), ""},
		{fmt.Sprintf("config=Accounting,doc=/doc1,cgi=%d", maxCGI+1), fmt.Sprintf("addressing plan's %d", maxCGI)},
		{"config=Accounting,doc=/doc1,cgi=14001", fmt.Sprintf("addressing plan's %d", maxCGI)},
		{"config=accounting,doc=/doc1", `unknown config "accounting"`},
		{"doc=/doc1", `unknown config ""`},
		{"config=Scout,doc=/index.html", `unknown doc "/index.html"`},
		{"config=Scout", `unknown doc ""`},
		{"config=Scout,doc=/doc1,clients=-1", "negative"},
		{"config=Scout,doc=/doc1,cgi=-2", "negative"},
		{"config=Scout,doc=/doc1,syncap=-64", "negative"},
		{"config=Scout,doc=/doc1,qos=-1", "negative"},
		{"config=Scout,doc=/doc1,syn=-1", "invalid syntax"},
		{"config=Scout,doc=/doc1,window=0", "window > 0"},
		{"config=Scout,doc=/doc1,window=0s", "window > 0"},
		{"config=Scout,doc=/doc1,warm=0", ""},
		{"config=Scout,doc=/doc1,stream=yes", "takes no value"},
		{"config=Scout,doc=/doc1,nosuch=1", `unknown key "nosuch"`},
		{"config=Scout,doc=/doc1,drop=2", "outside [0, 1]"},
		// Entries the config cannot arm name themselves and the config.
		{"config=Scout,doc=/doc1,cgi=2,penaltybox", `"penaltybox": config=Scout cannot arm it`},
		{"config=Scout,doc=/doc1,watchdog", `"watchdog": config=Scout`},
		{"config=Scout,doc=/doc1,reaper=2s", `"reaper=2s": config=Scout`},
		{"detector,config=Scout,doc=/doc1", `"detector": config=Scout`},
		{"config=Scout,doc=/doc1,syncap=64,qos=1048576,pathfinder,seed=3,drop=0.01,fp:kmem.alloc=n3", ""},
		{"config=Scout,doc=/doc1,shed=0.9,puzzle=8", ""},
		{"config=Linux,doc=/doc1,syn=1000,syncap=64", `"syncap=64": config=Linux cannot arm it`},
		{"config=Linux,doc=/doc1,qos=1048576", `"qos=1048576": config=Linux`},
		{"config=Linux,doc=/doc1,pathfinder", `"pathfinder": config=Linux`},
		{"config=Linux,doc=/doc1,penaltybox", `"penaltybox": config=Linux`},
		{"config=Linux,doc=/doc1,shed=0.9", `"shed=0.9": config=Linux`},
		{"config=Linux,doc=/doc1,shed=0.9,puzzle=8", `"shed=0.9": config=Linux`},
		{"config=Linux,doc=/doc1,watchdog", `"watchdog": config=Linux`},
		{"config=Linux,doc=/doc1,reaper", `"reaper": config=Linux`},
		{"config=Linux,doc=/doc1,detector", `"detector": config=Linux`},
		{"config=Linux,doc=/doc1,fp:kmem.alloc=n3", `"fp:kmem.alloc=n3": config=Linux`},
		{"config=Linux,doc=/doc1,cgi=2,stream,seed=3,drop=0.01,partition=5s:1s", ""},
		{"config=Accounting,doc=/doc1,cgi=2,penaltybox,watchdog,reaper,detector,shed=0.9,puzzle=8,fp:kmem.alloc=n3", ""},
	} {
		_, err := ParseRun(tc.spec)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("ParseRun(%q): %v", tc.spec, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("ParseRun(%q) = %v, want an error containing %q", tc.spec, err, tc.want)
		}
	}
}

// TestAddressingPlanLimits: every station the limits admit has its own
// IP and MAC, distinct from each other's and from the fixed stations'
// (server, QoS receiver, SYN attacker, bridge ports). One station past
// either limit collides.
func TestAddressingPlanLimits(t *testing.T) {
	ips := map[uint32]string{}
	macs := map[netsim.MAC]string{}
	add := func(who string, ip uint32, mac netsim.MAC) (clash string) {
		if other, ok := ips[ip]; ok {
			return other
		}
		if other, ok := macs[mac]; ok {
			return other
		}
		ips[ip], macs[mac] = who, who
		return ""
	}
	for _, fixed := range []struct {
		who string
		ip  uint32
		mac netsim.MAC
	}{
		{"server", 0x0A00_0001, 0x0200_0000_0001},
		{"qos receiver", 0x0A00_0002, 0x0200_0000_0002},
		{"syn attacker", 0xC0A8_0909, synMAC},
		{"bridge hub port", 0, 0x0200_0000_00FE},
		{"bridge switch port", 1, 0x0200_0000_00FF},
	} {
		add(fixed.who, fixed.ip, fixed.mac)
	}
	for i := 0; i < maxClients; i++ {
		ip, mac := clientAddr(i)
		if clash := add(fmt.Sprintf("client%d", i), ip, mac); clash != "" {
			t.Fatalf("client%d collides with %s", i, clash)
		}
	}
	for i := 0; i < maxCGI; i++ {
		ip, mac := cgiAddr(i)
		if clash := add(fmt.Sprintf("cgi%d", i), ip, mac); clash != "" {
			t.Fatalf("cgi%d collides with %s", i, clash)
		}
	}
	if ip, mac := clientAddr(maxClients); add("next client", ip, mac) == "" {
		t.Errorf("client #%d fits the plan; maxClients is too low", maxClients)
	}
	if ip, mac := cgiAddr(maxCGI); add("next cgi", ip, mac) == "" {
		t.Errorf("CGI attacker #%d fits the plan; maxCGI is too low", maxCGI)
	}
}

// runPoints lists every point of Figures 8–11 at sc.
func runPoints(sc Scale) []Run {
	docs := []DocSpec{Doc1B, Doc10K}
	var runs []Run
	runs = append(runs, fig8Runs(sc, AllDocs, AllConfigs)...)
	runs = append(runs, fig9Runs(sc, docs)...)
	runs = append(runs, fig10Runs(sc, docs)...)
	return append(runs, fig11Runs(sc, docs, 16)...)
}

// TestRunRoundTrip: the text form of every quick-scale figure point,
// with and without a fault spec, parses back to the same run.
func TestRunRoundTrip(t *testing.T) {
	sc := QuickScale()
	runs := runPoints(sc)
	spec, err := fault.ParseSpec("seed=7,drop=0.01,reorder=0.5:0,partition=5s:0,fp:kmem.alloc=n3,watchdog,detector")
	if err != nil {
		t.Fatal(err)
	}
	sc.Faults = spec
	for _, r := range runPoints(sc) {
		// Scout and Linux cannot arm the watchdog, the detector or the
		// failpoint, so ParseRun refuses their text (TestParseRunRejects).
		if r.Config == ConfigAccounting || r.Config == ConfigAccountingPD {
			runs = append(runs, r)
		}
	}
	for _, r := range runs {
		got, err := ParseRun(r.String())
		if err != nil {
			t.Fatalf("ParseRun(%q): %v", r, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip of %q:\n got %+v\nwant %+v", r, got, r)
		}
	}
}

// TestRunReproducesFigurePoints: measuring a figure point from its text
// form gives the sweep's row, field for field — so the spec -run prints
// is a faithful reproducer of a figure's number.
func TestRunReproducesFigurePoints(t *testing.T) {
	sc := Scale{
		Warm:    sim.CyclesPerSecond / 10,
		Window:  sim.CyclesPerSecond / 2,
		Clients: []int{4},
		CGICnts: []int{2},
		Workers: 2,
	}
	docs := []DocSpec{Doc1B}
	faulted := sc
	var err error
	if faulted.Faults, err = fault.ParseSpec("seed=5,drop=0.01,watchdog"); err != nil {
		t.Fatal(err)
	}
	for _, fig := range []struct {
		name string
		runs []Run
		rows func() ([]Row, error)
	}{
		{"fig8", fig8Runs(sc, docs, []Config{ConfigScout}), func() ([]Row, error) { return Fig8(sc, docs, []Config{ConfigScout}) }},
		{"fig9", fig9Runs(sc, docs), func() ([]Row, error) { return Fig9(sc, docs) }},
		{"fig10", fig10Runs(sc, docs), func() ([]Row, error) { return Fig10(sc, docs) }},
		{"fig11", fig11Runs(sc, docs, 4), func() ([]Row, error) { return Fig11(sc, docs, 4) }},
		{"fig9-faults", fig9Runs(faulted, docs), func() ([]Row, error) { return Fig9(faulted, docs) }},
	} {
		rows, err := fig.rows()
		if err != nil {
			t.Fatal(err)
		}
		// The last point of each figure carries its attack.
		i := len(fig.runs) - 1
		r, err := ParseRun(fig.runs[i].String())
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Measure(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != rows[i] {
			t.Errorf("%s: Measure(ParseRun(%q)) =\n %+v\nthe sweep measured\n %+v", fig.name, r, got, rows[i])
		}
	}
}

// TestMeasureDeltaIsTheWindow: the delta Measure returns covers exactly
// the measurement window, every cycle of it accounted.
func TestMeasureDeltaIsTheWindow(t *testing.T) {
	r, err := ParseRun("config=Accounting,doc=/doc1,clients=2,warm=100ms,window=200ms")
	if err != nil {
		t.Fatal(err)
	}
	_, d, err := Measure(r)
	if err != nil {
		t.Fatal(err)
	}
	if d.Measured < r.Window || d.Measured > r.Window+sim.CyclesPerMillisecond {
		t.Errorf("delta measured %d cycles over a %d-cycle window", d.Measured, r.Window)
	}
	if d.Unaccounted() != 0 {
		t.Errorf("unaccounted = %d", d.Unaccounted())
	}
}

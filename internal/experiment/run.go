package experiment

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Load is the offered load of one measurement point: the server
// configuration, the document the clients fetch, and the attacks. It
// is comparable, so rows are looked up by it.
type Load struct {
	Config  Config
	Doc     DocSpec
	Clients int
	SynRate uint64 // SYN/s from the untrusted flood; 0 attaches none
	Stream  bool   // attach the QoS receiver
	CGI     int    // CGI attackers
}

// Row is one measured point: its load and what Measure read off the
// testbed afterwards.
type Row struct {
	Load
	ConnPS   float64 // best-effort connections/second over the window
	SynDrops uint64  // SYNs the untrusted listener dropped at demux
	QoSRate  float64 // bytes/second delivered to the QoS receiver
	Kills    uint64  // runaway paths contained
}

// Run is one measurement point: the load, the testbed options, and the
// warm-up and window lengths. Its text form (String, ParseRun) carries
// the load, Warm, Window, and the options SynCapUntrusted, QoSRateBps,
// PathFinder, PenaltyBox and Faults; the other options (Model,
// Scheduler, FSCacheBudget, ExtraDocs, Obs) are set from Go only.
type Run struct {
	Load
	Options
	Warm, Window sim.Cycles
}

// ParseRun parses a run spec: comma-separated entries naming the load
// (config=, doc=, clients=, syn=, stream, cgi=), the options
// (syncap=, qos=, pathfinder, penaltybox), warm= and window= (paper
// scale by default), and any fault.ParseSpec entry. The grammar is
// documented with escort-bench's -run flag. An entry the config cannot
// arm is an error (see unarmable); the figure sweeps, which apply one
// fault spec to every point, do not go through ParseRun.
func ParseRun(spec string) (Run, error) {
	paper := PaperScale()
	r := Run{Warm: paper.Warm, Window: paper.Window}
	var entries, faults []string
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		entries = append(entries, entry)
		key, val, hasVal := strings.Cut(entry, "=")
		ours, err := r.apply(key, val, hasVal)
		if err != nil {
			return Run{}, fmt.Errorf("experiment: run entry %q: %w", entry, err)
		}
		if !ours {
			faults = append(faults, entry)
		}
	}
	if len(faults) > 0 {
		f, err := fault.ParseSpec(strings.Join(faults, ","))
		if err != nil {
			return Run{}, err
		}
		r.Faults = f
	}
	if err := r.check(); err != nil {
		return Run{}, err
	}
	for _, entry := range entries {
		key, _, _ := strings.Cut(entry, "=")
		if unarmable(r.Config, key) {
			return Run{}, fmt.Errorf("experiment: run entry %q: config=%s cannot arm it", entry, r.Config)
		}
	}
	return r, nil
}

// unarmable reports whether a server of config cfg ignores the run
// entry key. Base Scout keeps no accounting, which the penalty box,
// the watchdog, the session reaper and the detector feed on
// (fault.Defense.WithoutAccounting); the Linux baseline reads none of
// the Escort server's options, defenses or failpoints.
func unarmable(cfg Config, key string) bool {
	switch cfg {
	case ConfigScout:
		switch key {
		case "penaltybox", "watchdog", "reaper", "detector":
			return true
		}
	case ConfigLinux:
		switch key {
		case "syncap", "qos", "pathfinder", "penaltybox",
			"watchdog", "shed", "reaper", "puzzle", "detector":
			return true
		}
		return strings.HasPrefix(key, "fp:")
	}
	return false
}

// apply sets the field key names, reporting false for a key that is
// not a run key (a fault-spec entry).
func (r *Run) apply(key, val string, hasVal bool) (bool, error) {
	var err error
	switch key {
	case "config":
		r.Config = Config(val)
	case "doc":
		r.Doc = DocSpec{Name: val}
		if i := slices.IndexFunc(AllDocs, func(d DocSpec) bool { return d.Name == val }); i >= 0 {
			r.Doc = AllDocs[i]
		}
	case "clients":
		r.Clients, err = strconv.Atoi(val)
	case "syn":
		r.SynRate, err = strconv.ParseUint(val, 10, 64)
	case "syncap":
		r.SynCapUntrusted, err = strconv.Atoi(val)
	case "qos":
		r.QoSRateBps, err = strconv.Atoi(val)
	case "cgi":
		r.CGI, err = strconv.Atoi(val)
	case "warm":
		r.Warm, err = fault.ParseDuration(val)
	case "window":
		r.Window, err = fault.ParseDuration(val)
	case "stream", "pathfinder", "penaltybox":
		if hasVal {
			return true, fmt.Errorf("%s takes no value", key)
		}
		r.Stream = r.Stream || key == "stream"
		r.PathFinder = r.PathFinder || key == "pathfinder"
		r.PenaltyBox = r.PenaltyBox || key == "penaltybox"
	default:
		return false, nil
	}
	return true, err
}

// check rejects a run no testbed can honour.
func (r Run) check() error {
	switch {
	case !slices.Contains(AllConfigs, r.Config):
		return fmt.Errorf("experiment: unknown config %q (have %v)", r.Config, AllConfigs)
	case !slices.Contains(AllDocs, r.Doc):
		return fmt.Errorf("experiment: unknown doc %q (have %s, %s, %s)",
			r.Doc.Name, Doc1B.Name, Doc1K.Name, Doc10K.Name)
	case r.Clients < 0 || r.CGI < 0 || r.SynCapUntrusted < 0 || r.QoSRateBps < 0:
		return fmt.Errorf("experiment: negative count in %s", r)
	case r.Clients > maxClients:
		return fmt.Errorf("experiment: clients=%d beyond the addressing plan's %d", r.Clients, maxClients)
	case r.CGI > maxCGI:
		return fmt.Errorf("experiment: cgi=%d beyond the addressing plan's %d", r.CGI, maxCGI)
	case r.Warm < 0 || r.Window <= 0:
		return fmt.Errorf("experiment: warm=%d,window=%d: want warm >= 0 and window > 0", r.Warm, r.Window)
	}
	return nil
}

// String renders the run in ParseRun's grammar, canonically: config,
// doc, clients, warm and window always, durations as exact cycle
// counts, the other run keys when set, then the fault spec. ParseRun
// of the result reproduces every field the text form carries.
func (r Run) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "config=%s,doc=%s,clients=%d", r.Config, r.Doc.Name, r.Clients)
	num := func(key string, n uint64) {
		if n != 0 {
			fmt.Fprintf(&b, ",%s=%d", key, n)
		}
	}
	flag := func(key string, on bool) {
		if on {
			b.WriteString("," + key)
		}
	}
	num("syn", r.SynRate)
	num("syncap", uint64(r.SynCapUntrusted))
	num("qos", uint64(r.QoSRateBps))
	flag("stream", r.Stream)
	num("cgi", uint64(r.CGI))
	flag("pathfinder", r.PathFinder)
	flag("penaltybox", r.PenaltyBox)
	fmt.Fprintf(&b, ",warm=%d,window=%d", r.Warm, r.Window)
	if r.Faults != nil {
		b.WriteString("," + r.Faults.String())
	}
	return b.String()
}

// Measure runs one point: it builds the testbed, attaches the load,
// averages the connection rate over the window after the warm-up, and
// reads the counters before closing. The delta is the ledger's over the
// window (zero for Linux, which has no ledger). Load attaches in a
// fixed order (clients, SYN flood, QoS receiver, CGI attackers); a
// different order changes the simulation's output.
func Measure(r Run) (Row, core.Delta, error) {
	row := Row{Load: r.Load}
	if err := r.check(); err != nil {
		return row, core.Delta{}, err
	}
	tb, err := NewTestbed(r.Config, r.Options)
	if err != nil {
		return row, core.Delta{}, err
	}
	defer tb.Close()
	tb.AddClients(r.Clients, r.Doc.Name)
	if r.SynRate > 0 {
		tb.AddSynAttacker(r.SynRate)
	}
	if r.Stream {
		tb.AddQoSReceiver()
	}
	tb.AddCGIAttackers(r.CGI)
	tb.RunFor(r.Warm)
	done, start := tb.TotalCompleted(), tb.snapshot()
	tb.RunFor(r.Window)
	row.ConnPS = float64(tb.TotalCompleted()-done) / r.Window.Seconds()
	var delta core.Delta
	if srv := tb.Escort; srv != nil {
		delta = tb.snapshot().Diff(start)
		if srv.Untrusted != nil {
			row.SynDrops = srv.Untrusted.DroppedSyn
		}
		if srv.Contain != nil {
			row.Kills = srv.Contain.Kills
		}
	}
	if tb.QoS != nil {
		row.QoSRate = tb.QoS.RateBps(r.Window)
	}
	return row, delta, nil
}

package fault

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Spec is a parsed fault-mix description: the network fault climate,
// the armed failpoints, and the server's defenses. A nil *Spec means
// "no faults, no defenses" everywhere it is accepted.
type Spec struct {
	// Seed seeds the injector's and failpoint set's generators (the
	// two streams are derived independently so adding a failpoint does
	// not shift the network fault sequence).
	Seed uint64
	// Net is the network fault climate.
	Net NetConfig
	// Points are the armed failpoints, in spec order.
	Points []PointSpec
	// Defense holds the spec's defense entries; escort.Options.Defense
	// is the one place a server reads them.
	Defense
}

// PointSpec names a failpoint and its trigger.
type PointSpec struct {
	Name string
	Trig Trigger
}

// netSeedSalt decorrelates the failpoint stream from the network
// stream (an arbitrary odd constant).
const netSeedSalt = 0x9E3779B97F4A7C15

// NetEnabled reports whether the spec configures any network fault.
func (s *Spec) NetEnabled() bool { return s != nil && s.Net.enabled() }

// NewNetInjector builds the spec's network injector over eng, or nil
// when no network fault is configured.
func (s *Spec) NewNetInjector(eng *sim.Engine) *NetInjector {
	if !s.NetEnabled() {
		return nil
	}
	return NewNetInjector(eng, s.Seed, s.Net)
}

// NewSet builds the spec's failpoint set, or nil when no failpoint is
// armed (so unguarded kernels pay only a nil test per site).
func (s *Spec) NewSet() *Set {
	if s == nil || len(s.Points) == 0 {
		return nil
	}
	set := NewSet(s.Seed ^ netSeedSalt)
	for _, p := range s.Points {
		set.Arm(p.Name, p.Trig)
	}
	return set
}

// ParseSpec parses a comma-separated fault spec (the -faults flag
// grammar; see ROBUSTNESS.md):
//
//	seed=N                  generator seed (default 1)
//	drop=P                  per-frame loss probability
//	corrupt=P               per-frame checksum-breaking bit flip
//	dup=P                   per-frame duplication
//	reorder=P[:HOLD]        hold a frame for HOLD (default 1ms)
//	jitter=P:MAX            delay a frame by uniform (0, MAX]
//	flap=PERIOD:DOWN        link down for DOWN out of every PERIOD
//	partition=AT:DUR        all frames lost in [AT, AT+DUR)
//	fp:NAME=nN              failpoint NAME fails on its Nth hit
//	fp:NAME=pP              failpoint NAME fails with probability P
//	watchdog                enable the hung-path watchdog
//	shed=FRAC               shed new connections above FRAC page use
//	reaper[=MINAGE]         enable the idle/slow-session reaper
//	puzzle=BITS             client-puzzle SYN gate under shed pressure
//	                        (needs shed=FRAC)
//	detector                enable the adaptive anomaly detector
//
// Durations accept us/ms/s suffixes; a bare number is virtual cycles.
// The empty string parses to nil (no faults).
func ParseSpec(spec string) (*Spec, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	s := &Spec{Seed: 1}
	puzzle := "" // the entry that armed the puzzle gate
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		key, val, hasVal := strings.Cut(entry, "=")
		if err := s.apply(key, val, hasVal); err != nil {
			return nil, fmt.Errorf("fault: spec entry %q: %w", entry, err)
		}
		if key == "puzzle" {
			puzzle = entry
		}
	}
	if s.PuzzleBits != 0 && s.Shed == 0 {
		return nil, fmt.Errorf("fault: spec entry %q: the puzzle gate runs only under shed pressure; add shed=FRAC", puzzle)
	}
	return s, nil
}

// String renders the spec in ParseSpec's grammar, one entry per set
// field in a fixed order, durations as exact cycle counts and floats in
// their shortest exact form, so ParseSpec(s.String()) equals s. The
// seed is always written, so a spec that arms nothing still renders
// non-empty; a nil spec renders as "".
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	e := []string{"seed=" + strconv.FormatUint(s.Seed, 10)}
	add := func(key string, set bool, vals ...string) {
		if set {
			e = append(e, key+"="+strings.Join(vals, ":"))
		}
	}
	n := s.Net
	add("drop", n.Drop != 0, fmtFloat(n.Drop))
	add("corrupt", n.Corrupt != 0, fmtFloat(n.Corrupt))
	add("dup", n.Dup != 0, fmtFloat(n.Dup))
	if n.ReorderDelay != 0 {
		add("reorder", true, fmtFloat(n.Reorder), fmtCycles(n.ReorderDelay))
	} else {
		add("reorder", n.Reorder != 0, fmtFloat(n.Reorder))
	}
	add("jitter", n.Jitter != 0 || n.JitterMax != 0, fmtFloat(n.Jitter), fmtCycles(n.JitterMax))
	add("flap", n.FlapPeriod != 0 || n.FlapDown != 0, fmtCycles(n.FlapPeriod), fmtCycles(n.FlapDown))
	add("partition", n.PartitionAt != 0 || n.PartitionFor != 0, fmtCycles(n.PartitionAt), fmtCycles(n.PartitionFor))
	for _, p := range s.Points {
		trig := "p" + fmtFloat(p.Trig.P)
		if p.Trig.Nth != 0 {
			trig = "n" + strconv.FormatUint(p.Trig.Nth, 10)
		}
		add("fp:"+p.Name, true, trig)
	}
	e = s.Defense.appendEntries(e)
	return strings.Join(e, ",")
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func fmtCycles(c sim.Cycles) string { return strconv.FormatInt(int64(c), 10) }

func (s *Spec) apply(key, val string, hasVal bool) error {
	if name, ok := strings.CutPrefix(key, "fp:"); ok {
		if !KnownFailpoint(name) {
			return fmt.Errorf("unknown failpoint %q (registered failpoints: %s)",
				name, strings.Join(KnownFailpoints, ", "))
		}
		trig, err := parseTrigger(val)
		if err != nil {
			return err
		}
		s.Points = append(s.Points, PointSpec{Name: name, Trig: trig})
		return nil
	}
	if parse, ok := specEntries[key]; ok {
		return parse(s, val)
	}
	if parse, ok := defenseEntries[key]; ok {
		return parse(&s.Defense, val, hasVal)
	}
	return fmt.Errorf("unknown key %q", key)
}

// specEntries parses each key of the spec grammar other than the
// fp:NAME failpoints and the defense keys (defenseEntries).
var specEntries = map[string]func(s *Spec, val string) error{
	"seed": func(s *Spec, val string) (err error) {
		s.Seed, err = strconv.ParseUint(val, 10, 64)
		return err
	},
	"drop":    func(s *Spec, val string) error { return parseProb(val, &s.Net.Drop) },
	"corrupt": func(s *Spec, val string) error { return parseProb(val, &s.Net.Corrupt) },
	"dup":     func(s *Spec, val string) error { return parseProb(val, &s.Net.Dup) },
	"reorder": func(s *Spec, val string) (err error) {
		p, rest, _ := strings.Cut(val, ":")
		if err = parseProb(p, &s.Net.Reorder); err == nil && rest != "" {
			s.Net.ReorderDelay, err = ParseDuration(rest)
		}
		return err
	},
	"jitter": func(s *Spec, val string) (err error) {
		p, rest, ok := strings.Cut(val, ":")
		if !ok {
			return fmt.Errorf("want jitter=P:MAX")
		}
		if err = parseProb(p, &s.Net.Jitter); err == nil {
			s.Net.JitterMax, err = ParseDuration(rest)
		}
		return err
	},
	"flap": func(s *Spec, val string) error {
		period, down, ok := strings.Cut(val, ":")
		if !ok {
			return fmt.Errorf("want flap=PERIOD:DOWN")
		}
		p, err := ParseDuration(period)
		if err != nil {
			return err
		}
		d, err := ParseDuration(down)
		if err != nil {
			return err
		}
		if d >= p {
			return fmt.Errorf("flap down time %d must be shorter than the period %d", d, p)
		}
		s.Net.FlapPeriod, s.Net.FlapDown = p, d
		return nil
	},
	"partition": func(s *Spec, val string) error {
		at, dur, ok := strings.Cut(val, ":")
		if !ok {
			return fmt.Errorf("want partition=AT:DUR")
		}
		a, err := ParseDuration(at)
		if err != nil {
			return err
		}
		d, err := ParseDuration(dur)
		if err != nil {
			return err
		}
		s.Net.PartitionAt, s.Net.PartitionFor = a, d
		return nil
	},
}

// parseTrigger parses nN (Nth hit) or pP (probability).
func parseTrigger(val string) (Trigger, error) {
	if len(val) < 2 {
		return Trigger{}, fmt.Errorf("want nN or pP, got %q", val)
	}
	switch val[0] {
	case 'n':
		n, err := strconv.ParseUint(val[1:], 10, 64)
		if err != nil || n == 0 {
			return Trigger{}, fmt.Errorf("bad hit count %q", val[1:])
		}
		return Trigger{Nth: n}, nil
	case 'p':
		var t Trigger
		if err := parseProb(val[1:], &t.P); err != nil {
			return Trigger{}, err
		}
		return t, nil
	}
	return Trigger{}, fmt.Errorf("want nN or pP, got %q", val)
}

func parseProb(val string, dst *float64) error {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return err
	}
	if !(f >= 0 && f <= 1) { // NaN fails both tests
		return fmt.Errorf("probability %v outside [0, 1]", f)
	}
	*dst = f
	return nil
}

// ParseDuration parses a virtual duration in the spec grammar: bare
// cycles, or a number with a us/ms/s suffix.
func ParseDuration(val string) (sim.Cycles, error) {
	unit := sim.Cycles(1)
	num := val
	switch {
	case strings.HasSuffix(val, "us"):
		unit, num = sim.CyclesPerMillisecond/1000, val[:len(val)-2]
	case strings.HasSuffix(val, "ms"):
		unit, num = sim.CyclesPerMillisecond, val[:len(val)-2]
	case strings.HasSuffix(val, "s"):
		unit, num = sim.CyclesPerSecond, val[:len(val)-1]
	}
	n, err := strconv.ParseUint(num, 10, 63)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", val)
	}
	// The unit multiply must not wrap: 30 million virtual seconds
	// overflows int64 cycles and would arm a negative threshold.
	if unit > 1 && sim.Cycles(n) > (1<<62)/unit {
		return 0, fmt.Errorf("duration %q overflows the cycle clock", val)
	}
	return sim.Cycles(n) * unit, nil
}

package fault

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Spec is a parsed fault-mix description: the network fault climate,
// the armed failpoints, and the graceful-degradation knobs. A nil
// *Spec means "no faults, no degradation machinery" everywhere it is
// accepted.
type Spec struct {
	// Seed seeds the injector's and failpoint set's generators (the
	// two streams are derived independently so adding a failpoint does
	// not shift the network fault sequence).
	Seed uint64
	// Net is the network fault climate.
	Net NetConfig
	// Points are the armed failpoints, in spec order.
	Points []PointSpec
	// Watchdog enables the hung-path watchdog; WatchdogStall overrides
	// its no-progress threshold (zero = the policy default).
	Watchdog      bool
	WatchdogStall sim.Cycles
	// Shed is the overload-shedding high-water mark as a fraction of
	// the page pool in use (0 disables; e.g. 0.9 sheds new connections
	// above 90% memory pressure).
	Shed float64
	// Reaper enables the idle/slow-session reaper; ReaperMinAge
	// overrides the minimum established age before a session is judged
	// (zero = the policy default).
	Reaper       bool
	ReaperMinAge sim.Cycles
	// PuzzleBits arms the client-puzzle fast-reject gate on the passive
	// path: under shed pressure, SYNs whose initial sequence number does
	// not prove ~2^bits of client hash work are rejected cheaply instead
	// of shed wholesale (zero disables the gate).
	PuzzleBits uint
	// Detector enables the adaptive anomaly detector.
	Detector bool
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
//	watchdog[=STALL]        enable the hung-path watchdog
//	shed=FRAC               shed new connections above FRAC page use
//	reaper[=MINAGE]         enable the idle/slow-session reaper
//	puzzle=BITS             client-puzzle SYN gate under shed pressure
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
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		key, val, hasVal := strings.Cut(entry, "=")
		if err := s.apply(key, val, hasVal); err != nil {
			return nil, fmt.Errorf("fault: spec entry %q: %w", entry, err)
		}
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
	// watchdog and reaper write their threshold only when it overrides
	// the policy default.
	toggle := func(key string, on bool, d sim.Cycles) {
		switch {
		case d != 0:
			add(key, true, fmtCycles(d))
		case on:
			e = append(e, key)
		}
	}
	toggle("watchdog", s.Watchdog, s.WatchdogStall)
	add("shed", s.Shed != 0, fmtFloat(s.Shed))
	toggle("reaper", s.Reaper, s.ReaperMinAge)
	add("puzzle", s.PuzzleBits != 0, strconv.FormatUint(uint64(s.PuzzleBits), 10))
	if s.Detector {
		e = append(e, "detector")
	}
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
	switch key {
	case "seed":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return err
		}
		s.Seed = n
	case "drop":
		return parseProb(val, &s.Net.Drop)
	case "corrupt":
		return parseProb(val, &s.Net.Corrupt)
	case "dup":
		return parseProb(val, &s.Net.Dup)
	case "reorder":
		p, rest, _ := strings.Cut(val, ":")
		if err := parseProb(p, &s.Net.Reorder); err != nil {
			return err
		}
		if rest != "" {
			d, err := ParseDuration(rest)
			if err != nil {
				return err
			}
			s.Net.ReorderDelay = d
		}
	case "jitter":
		p, rest, ok := strings.Cut(val, ":")
		if !ok {
			return fmt.Errorf("want jitter=P:MAX")
		}
		if err := parseProb(p, &s.Net.Jitter); err != nil {
			return err
		}
		d, err := ParseDuration(rest)
		if err != nil {
			return err
		}
		s.Net.JitterMax = d
	case "flap":
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
	case "partition":
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
	case "watchdog":
		s.Watchdog = true
		if hasVal && val != "" {
			d, err := ParseDuration(val)
			if err != nil {
				return err
			}
			s.WatchdogStall = d
		}
	case "shed":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return err
		}
		if !(f > 0 && f <= 1) {
			return fmt.Errorf("shed fraction %v outside (0, 1]", f)
		}
		s.Shed = f
	case "reaper":
		s.Reaper = true
		if hasVal && val != "" {
			d, err := ParseDuration(val)
			if err != nil {
				return err
			}
			s.ReaperMinAge = d
		}
	case "puzzle":
		n, err := strconv.ParseUint(val, 10, 8)
		if err != nil || n == 0 || n > 24 {
			return fmt.Errorf("puzzle bits %q outside [1, 24]", val)
		}
		s.PuzzleBits = uint(n)
	case "detector":
		if hasVal {
			return fmt.Errorf("detector takes no value")
		}
		s.Detector = true
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
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

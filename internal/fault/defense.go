package fault

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// Defense configures the server's defenses on top of the §4.4
// policies: the graceful-degradation mechanisms and the adaptive
// detector that escort.NewServer arms. The zero value arms none. Its
// entries share the fault-spec grammar (see ParseSpec), and every Spec
// embeds the Defense its string configures.
type Defense struct {
	// Watchdog enables the hung-path watchdog.
	Watchdog bool
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
	// of shed wholesale (zero disables the gate). The gate runs only
	// under shed pressure, so the grammar rejects it without Shed.
	PuzzleBits uint
	// Detector enables the adaptive anomaly detector.
	Detector bool
}

// WithoutAccounting returns the defenses a server without resource
// accounting keeps: shedding and the puzzle gate. The watchdog, the
// session reaper and the detector judge paths by their accounted usage.
func (d Defense) WithoutAccounting() Defense {
	return Defense{Shed: d.Shed, PuzzleBits: d.PuzzleBits}
}

// defenseEntries parses each defense key of the spec grammar.
var defenseEntries = map[string]func(d *Defense, val string, hasVal bool) error{
	"watchdog": func(d *Defense, _ string, hasVal bool) error {
		d.Watchdog = true
		return noValue("watchdog", hasVal)
	},
	"shed": func(d *Defense, val string, _ bool) error {
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return err
		}
		if !(f > 0 && f <= 1) {
			return fmt.Errorf("shed fraction %v outside (0, 1]", f)
		}
		d.Shed = f
		return nil
	},
	"reaper": func(d *Defense, val string, _ bool) (err error) {
		d.Reaper = true
		if val != "" {
			d.ReaperMinAge, err = ParseDuration(val)
		}
		return err
	},
	"puzzle": func(d *Defense, val string, _ bool) error {
		n, err := strconv.ParseUint(val, 10, 8)
		if err != nil || n == 0 || n > 24 {
			return fmt.Errorf("puzzle bits %q outside [1, 24]", val)
		}
		d.PuzzleBits = uint(n)
		return nil
	},
	"detector": func(d *Defense, _ string, hasVal bool) error {
		d.Detector = true
		return noValue("detector", hasVal)
	},
}

func noValue(key string, hasVal bool) error {
	if hasVal {
		return fmt.Errorf("%s takes no value", key)
	}
	return nil
}

// appendEntries appends d's entries to e in ParseSpec's grammar, in a
// fixed order; reaper writes its minimum age only when it overrides
// the policy default.
func (d *Defense) appendEntries(e []string) []string {
	if d.Watchdog {
		e = append(e, "watchdog")
	}
	if d.Shed != 0 {
		e = append(e, "shed="+fmtFloat(d.Shed))
	}
	switch {
	case d.ReaperMinAge != 0:
		e = append(e, "reaper="+fmtCycles(d.ReaperMinAge))
	case d.Reaper:
		e = append(e, "reaper")
	}
	if d.PuzzleBits != 0 {
		e = append(e, "puzzle="+strconv.FormatUint(uint64(d.PuzzleBits), 10))
	}
	if d.Detector {
		e = append(e, "detector")
	}
	return e
}

package fault

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestParseSpecDegradationKnobs covers the reaper and puzzle grammar
// entries introduced with the attack-scenario library.
func TestParseSpecDegradationKnobs(t *testing.T) {
	cases := []struct {
		in   string
		want func(*Spec) bool
	}{
		{"reaper", func(s *Spec) bool { return s.Reaper && s.ReaperMinAge == 0 }},
		{"reaper=250ms", func(s *Spec) bool {
			return s.Reaper && s.ReaperMinAge == 250*sim.CyclesPerMillisecond
		}},
		{"puzzle=12", func(s *Spec) bool { return s.PuzzleBits == 12 }},
		{"detector", func(s *Spec) bool { return s.Detector }},
		{"shed=0.5,puzzle=8,reaper=1s", func(s *Spec) bool {
			return s.Shed == 0.5 && s.PuzzleBits == 8 && s.Reaper &&
				s.ReaperMinAge == sim.CyclesPerSecond
		}},
	}
	for _, c := range cases {
		s, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if !c.want(s) {
			t.Errorf("ParseSpec(%q): wrong result %+v", c.in, s)
		}
	}
}

// TestParseSpecMalformed is the malformed-spec table: every entry must
// be rejected, the error must name the offending entry verbatim, and
// unknown-failpoint errors must list the registered failpoints so the
// fix is in the message.
func TestParseSpecMalformed(t *testing.T) {
	cases := []struct {
		spec  string
		entry string // the entry the error must quote verbatim
	}{
		{"drop", "drop"},
		{"drop=2", "drop=2"},
		{"drop=NaN", "drop=NaN"},
		{"seed=1,drop=nope", "drop=nope"},
		{"jitter=0.5", "jitter=0.5"},
		{"flap=5ms:5ms", "flap=5ms:5ms"},
		{"partition=1s", "partition=1s"},
		{"watchdog=fast", "watchdog=fast"},
		{"shed=0", "shed=0"},
		{"shed=1.01", "shed=1.01"},
		{"shed=nan", "shed=nan"},
		{"reaper=soon", "reaper=soon"},
		{"puzzle=0", "puzzle=0"},
		{"puzzle=25", "puzzle=25"},
		{"puzzle=many", "puzzle=many"},
		{"fp:kmem.alloc=x1", "fp:kmem.alloc=x1"},
		{"fp:kmem.alloc=n0", "fp:kmem.alloc=n0"},
		{"fp:kmem.alloc=p2", "fp:kmem.alloc=p2"},
		{"fp:kmem.alloc=pNaN", "fp:kmem.alloc=pNaN"},
		{"fp:kmem.aloc=n1", "fp:kmem.aloc=n1"},
		{"fp:=n1", "fp:=n1"},
		{"drop=0.1,fp:page.alloc=p0.5,dup=0.1", "fp:page.alloc=p0.5"},
		{"detector=300ms", "detector=300ms"},
		{"detector=:6", "detector=:6"},
		{"detector=", "detector="},
		{"nonsense", "nonsense"},
		{"nonsense=1", "nonsense=1"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q): accepted malformed spec", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), `"`+c.entry+`"`) {
			t.Errorf("ParseSpec(%q): error %q does not name entry %q verbatim",
				c.spec, err, c.entry)
		}
	}
}

// TestParseSpecUnknownFailpointListsRegistered pins the discoverability
// contract: a typo'd failpoint name is rejected with the full list of
// registered failpoints in the message.
func TestParseSpecUnknownFailpointListsRegistered(t *testing.T) {
	_, err := ParseSpec("fp:kmem.aloc=n1")
	if err == nil {
		t.Fatal("unknown failpoint accepted")
	}
	for _, name := range KnownFailpoints {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered failpoint %q", err, name)
		}
	}
	for _, name := range KnownFailpoints {
		if !KnownFailpoint(name) {
			t.Errorf("KnownFailpoint(%q) = false for a registered name", name)
		}
	}
	if KnownFailpoint("not.a.point") {
		t.Error("KnownFailpoint accepted an unregistered name")
	}
}

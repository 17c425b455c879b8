package fault

import (
	"os"
	"regexp"
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
		{"shed=0.9,puzzle=12", func(s *Spec) bool { return s.Shed == 0.9 && s.PuzzleBits == 12 }},
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
		{"puzzle=12", "puzzle=12"},
		{"puzzle=8,drop=0.1,puzzle=12", "puzzle=12"},
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

// TestGrammarTableMatchesParser keeps ROBUSTNESS.md's grammar table in
// step with the parser: every entry the table lists parses once its
// placeholders are filled in (with and without its optional part), and
// every key the parser accepts has a row.
func TestGrammarTableMatchesParser(t *testing.T) {
	doc, err := os.ReadFile("../../ROBUSTNESS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(doc), "## The fault-spec grammar")
	_, table, _ = strings.Cut(table, "| Entry | Meaning |")
	table, _, _ = strings.Cut(table, "\n\n")
	// Sample values, longer placeholders first so NAME is not read as N.
	fill := strings.NewReplacer("PERIOD", "10ms", "MINAGE", "250ms", "NAME", "kmem.alloc",
		"HOLD", "1ms", "MAX", "1ms", "DOWN", "1ms", "DUR", "1ms", "AT", "1s",
		"FRAC", "0.9", "BITS", "8", "N", "3", "P", "0.5")
	optional := regexp.MustCompile(`\[(.*?)\]`)
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(table, -1) {
		entry := m[1]
		key, _, _ := strings.Cut(optional.ReplaceAllString(entry, ""), "=")
		if strings.HasPrefix(key, "fp:") {
			key = "fp:"
		}
		listed[key] = true
		for _, form := range []string{optional.ReplaceAllString(entry, ""), optional.ReplaceAllString(entry, "$1")} {
			// puzzle needs shed, so every form parses after a shed entry.
			if _, err := ParseSpec("shed=0.9," + fill.Replace(form)); err != nil {
				t.Errorf("ROBUSTNESS.md lists %q, but %q does not parse: %v", entry, fill.Replace(form), err)
			}
		}
	}
	accepted := []string{"fp:"}
	for key := range specEntries {
		accepted = append(accepted, key)
	}
	for key := range defenseEntries {
		accepted = append(accepted, key)
	}
	for _, key := range accepted {
		if !listed[key] {
			t.Errorf("ParseSpec accepts %q, but ROBUSTNESS.md's grammar table has no row for it", key)
		}
	}
}

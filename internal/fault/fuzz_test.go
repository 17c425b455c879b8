package fault

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSpec throws arbitrary strings at the -faults grammar.
// ParseSpec must never panic, and any spec it accepts must describe a
// sane fault mix — every probability in [0, 1], every duration
// non-negative (the unit multiply must not wrap), shed inside (0, 1],
// puzzle bits inside the wire clamp and only with shed, flap down time
// under its period — and must survive its own text form:
// ParseSpec(s.String()) deep-equals s, and String is a fixed point.
// The seed corpus (testdata/fuzz/FuzzParseSpec) covers every grammar
// production, plus forms the grammar no longer accepts (detector=
// WARMUP[:K], watchdog=STALL, puzzle= without shed), which must be
// rejected without panicking.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"",
		"seed=7",
		"drop=0.01,corrupt=0.001,dup=0.02",
		"reorder=0.05:2ms",
		"jitter=0.1:500us",
		"flap=100ms:10ms",
		"partition=1s:250ms",
		"partition=5s:0",
		"reorder=0.5:0",
		"reorder=0:5ms",
		"jitter=0.5:0",
		"drop=-0,fp:iobuf.grant=p-0",
		"fp:kmem.alloc=n3,fp:kmem.alloc=p0.25,drop=1e-7",
		"fp:kmem.alloc=p0.001",
		"fp:kmem.alloc=n3",
		"watchdog",
		"watchdog=40ms",
		"shed=0.9",
		"reaper=250ms",
		"puzzle=12",
		"detector",
		"detector=300ms",
		"detector=300ms:4",
		"detector=:6",
		"seed=31,reaper=250ms,detector=100ms:3,puzzle=8",
		"reaper=30744573456182586s", // unit multiply near the int64 edge
		"seed=,drop=,jitter=:",
		" , , ",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			if s != nil {
				t.Fatal("ParseSpec returned a spec alongside an error")
			}
			return
		}
		if s == nil {
			if strings.TrimSpace(spec) != "" {
				t.Fatalf("nil spec without error for non-blank input %q", spec)
			}
			return
		}
		for _, p := range []struct {
			name string
			v    float64
		}{
			{"drop", s.Net.Drop}, {"corrupt", s.Net.Corrupt}, {"dup", s.Net.Dup},
			{"reorder", s.Net.Reorder}, {"jitter", s.Net.Jitter},
		} {
			if p.v < 0 || p.v > 1 {
				t.Fatalf("accepted %s probability %v outside [0, 1]", p.name, p.v)
			}
		}
		for _, d := range []struct {
			name string
			v    int64
		}{
			{"reorder delay", int64(s.Net.ReorderDelay)},
			{"jitter max", int64(s.Net.JitterMax)},
			{"flap period", int64(s.Net.FlapPeriod)},
			{"flap down", int64(s.Net.FlapDown)},
			{"partition at", int64(s.Net.PartitionAt)},
			{"partition for", int64(s.Net.PartitionFor)},
			{"reaper min age", int64(s.ReaperMinAge)},
		} {
			if d.v < 0 {
				t.Fatalf("accepted negative %s %d (overflowed duration?)", d.name, d.v)
			}
		}
		if s.Shed != 0 && (s.Shed <= 0 || s.Shed > 1) {
			t.Fatalf("accepted shed fraction %v outside (0, 1]", s.Shed)
		}
		if s.PuzzleBits > 24 {
			t.Fatalf("accepted puzzle bits %d past the wire clamp", s.PuzzleBits)
		}
		if s.PuzzleBits != 0 && s.Shed == 0 {
			t.Fatalf("accepted puzzle bits %d without shed", s.PuzzleBits)
		}
		if s.Net.FlapPeriod > 0 && s.Net.FlapDown >= s.Net.FlapPeriod {
			t.Fatalf("accepted flap down %d >= period %d", s.Net.FlapDown, s.Net.FlapPeriod)
		}
		for _, p := range s.Points {
			if p.Trig.Nth == 0 && (p.Trig.P < 0 || p.Trig.P > 1) {
				t.Fatalf("accepted failpoint %s with probability %v outside [0, 1]",
					p.Name, p.Trig.P)
			}
		}
		text := s.String()
		again, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q) (the String of %q): %v", text, spec, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip of %q through %q:\n got %+v\nwant %+v", spec, text, again, s)
		}
		if again.String() != text {
			t.Fatalf("String is not a fixed point: %q then %q", text, again.String())
		}
	})
}

package experiment

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzParseRun from the quick-scale figure points")

// FuzzParseRun throws arbitrary strings at the run-spec grammar.
// ParseRun must never panic, and any run it accepts must survive its
// own text form: ParseRun(r.String()) deep-equals r, and String is a
// fixed point. The seed corpus (testdata/fuzz/FuzzParseRun) holds the
// text form of every quick-scale Figure 8–11 point plus malformed
// specs, so plain go test runs them all.
func FuzzParseRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		r, err := ParseRun(spec)
		if err != nil {
			return
		}
		text := r.String()
		again, err := ParseRun(text)
		if err != nil {
			t.Fatalf("ParseRun(%q) (the String of %q): %v", text, spec, err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("round trip of %q through %q:\n got %+v\nwant %+v", spec, text, again, r)
		}
		if again.String() != text {
			t.Fatalf("String is not a fixed point: %q then %q", text, again.String())
		}
	})
}

// malformedRuns are the corpus's hand-written entries: specs ParseRun
// must reject, and edge forms it must accept and normalize.
var malformedRuns = map[string]string{
	"empty":              "",
	"missing-config":     "doc=/doc1,clients=4",
	"unknown-doc":        "config=Scout,doc=/index.html",
	"clients-past-plan":  "config=Accounting,doc=/doc1,clients=49751",
	"cgi-past-plan":      "config=Accounting,doc=/doc1,cgi=14001",
	"negative-clients":   "config=Accounting,doc=/doc1,clients=-1",
	"zero-window":        "config=Accounting,doc=/doc1,window=0",
	"flag-with-value":    "config=Accounting,doc=/doc1,stream=1",
	"fault-edge-values":  "config=Scout,doc=/doc1k,partition=5s:0,reorder=0.5:0,drop=-0",
	"duplicate-keys":     " config=Linux , clients=2,clients=+3,doc=/doc10k,,seed=9,seed=4",
	"duration-overflow":  "config=Scout,doc=/doc1,warm=30744573456182586s",
	"bare-fault-entries": "config=Accounting,doc=/doc1,watchdog,reaper=,detector,penaltybox,pathfinder",
}

// TestFuzzParseRunCorpus keeps the checked-in seed corpus in step with
// the figures: every quick-scale point's text form must be in it (run
// with -update-corpus to rewrite it after a grammar change).
func TestFuzzParseRunCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParseRun")
	want := map[string]string{}
	for name, spec := range malformedRuns {
		want[name] = spec
	}
	for _, r := range runPoints(QuickScale()) {
		spec := r.String()
		want[fmt.Sprintf("point-%x", sha256.Sum256([]byte(spec)))[:22]] = spec
	}
	if *updateCorpus {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, spec := range want {
		body := "go test fuzz v1\nstring(" + strconv.Quote(spec) + ")\n"
		path := filepath.Join(dir, name)
		if *updateCorpus {
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != body {
			t.Errorf("corpus entry %s is not %q; rerun with -update-corpus", path, spec)
		}
	}
}

package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// by runBench, so the tests drive the real flag handling and exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("ESCORT_BENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBench runs escort-bench with args and returns its stdout and exit
// code.
func runBench(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ESCORT_BENCH_MAIN=1")
	out, err := cmd.Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

func TestKnownExp(t *testing.T) {
	for _, name := range append([]string{"all"}, experiments...) {
		if !knownExp(name) {
			t.Errorf("knownExp(%q) = false", name)
		}
	}
	for _, name := range []string{"fig12", "Fig8", "", "table", "all "} {
		if knownExp(name) {
			t.Errorf("knownExp(%q) = true", name)
		}
	}
}

// TestRunPoint drives -run end to end: the output opens with the
// canonical spec (a reproducer) and closes with the window's ledger.
func TestRunPoint(t *testing.T) {
	const spec = "config=Accounting,doc=/doc1,clients=4,syn=500,syncap=64,qos=1048576,stream,cgi=1,warm=50ms,window=200ms,seed=3,drop=0.01"
	const canonical = "config=Accounting,doc=/doc1,clients=4,syn=500,syncap=64,qos=1048576,stream,cgi=1,warm=15000000,window=60000000,seed=3,drop=0.01"
	out, code := runBench(t, "-run", spec)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != canonical {
		t.Errorf("first line = %q, want the canonical spec %q", lines[0], canonical)
	}
	if !strings.Contains(out, " conn/s, ") {
		t.Errorf("no conn/s line:\n%s", out)
	}
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "Total Accounted") || !strings.HasSuffix(last, "(100%)") {
		t.Errorf("last line = %q, want the ledger's Total Accounted row at 100%%", last)
	}
	again, code := runBench(t, "-run", canonical)
	if code != 0 || again != out {
		t.Errorf("rerunning the canonical spec (exit %d) printed\n%s\nnot\n%s", code, again, out)
	}
}

// TestRunExcludesOtherModes: -run measures one point, so pairing it
// with a sweep or a scenario, or giving it a bad spec, is a usage
// error.
func TestRunExcludesOtherModes(t *testing.T) {
	const spec = "config=Scout,doc=/doc1,clients=1,window=10ms"
	for _, args := range [][]string{
		{"-run", spec, "-exp", "fig8"},
		{"-exp", "all", "-run", spec},
		{"-run", spec, "-scenario", "slowloris"},
		{"-run", spec, "-faults", "drop=0.1"},
		{"-run", "config=Scout,doc=/doc1,window=0"},
		{"-run", "config=Scout,doc=/doc1,clients=99999"},
	} {
		if out, code := runBench(t, args...); code != 2 {
			t.Errorf("escort-bench %q: exit %d, want 2\n%s", args, code, out)
		}
	}
}

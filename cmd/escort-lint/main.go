// escort-lint is the multichecker for Escort's invariant analyzers:
//
//	chargebalance  every Charge* is balanced on every CFG path by a
//	               Refund*/ReleaseAll/Track, a releasing call, or escape
//	               of the charged owner, and tracked kernel objects are
//	               never allocated outside the blessed constructors
//	determinism    no wall-clock, global rand, or order-sensitive map
//	               iteration in simulator-downstream packages
//	faultsafe      returns inside `if failpoint.Fire()` bodies discharge
//	               every charge made before them (held ones included)
//	handlesafe     pooled sim.Event handles follow cancel-then-zero and
//	               are never held by pointer
//	hotpathalloc   hot-path packages (sim, netsim, iobuf, kernel) do not
//	               allocate outside cold branches, observability guards,
//	               and //escort:coldpath exemptions
//	obsguard       obs emits go through a pre-resolved pointer behind a
//	               nil check, with no allocation before the guard
//	simtime        no wall-clock time APIs inside internal/ packages
//	writeonly      no unexported struct field that its package only
//	               writes (assignments, literal keys, self-appends)
//
// Usage:
//
//	go run ./cmd/escort-lint [-tests] [-run a,b] [-json|-sarif] [packages]
//
// Exit status: 0 clean, 1 findings, 2 internal error or incomplete run
// (a package failed to load; its findings may be missing). On partial
// load failure the findings from healthy packages are still printed
// before exiting 2. See STATIC_ANALYSIS.md for the invariants and
// suppression syntax.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/chargebalance"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/faultsafe"
	"repro/internal/analysis/handlesafe"
	"repro/internal/analysis/hotpathalloc"
	"repro/internal/analysis/obsguard"
	"repro/internal/analysis/simtime"
	"repro/internal/analysis/writeonly"
)

func main() {
	tests := flag.Bool("tests", true, "analyze _test.go files and external test packages")
	run := flag.String("run", "", "comma-separated analyzer names to run (default all)")
	dir := flag.String("C", "", "module directory to lint (default current directory)")
	asJSON := flag.Bool("json", false, "write findings as JSON")
	asSARIF := flag.Bool("sarif", false, "write findings as SARIF 2.1.0")
	flag.Parse()
	if *asJSON && *asSARIF {
		fmt.Fprintln(os.Stderr, "escort-lint: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}

	byName := map[string]*analysis.Analyzer{}
	order := []*analysis.Analyzer{
		chargebalance.Analyzer,
		determinism.Analyzer,
		faultsafe.Analyzer,
		handlesafe.Analyzer,
		hotpathalloc.Analyzer,
		obsguard.Analyzer,
		simtime.Analyzer,
		writeonly.Analyzer,
	}
	for _, a := range order {
		byName[a.Name] = a
	}
	selected := order
	if *run != "" {
		selected = nil
		for _, name := range strings.Split(*run, ",") {
			a := byName[strings.TrimSpace(name)]
			if a == nil {
				fmt.Fprintf(os.Stderr, "escort-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	res, err := driver.Run(driver.Options{
		Dir:       *dir,
		Patterns:  flag.Args(),
		Tests:     *tests,
		Analyzers: selected,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "escort-lint: %v\n", err)
		os.Exit(2)
	}

	var werr error
	switch {
	case *asJSON:
		werr = res.WriteJSON(os.Stdout)
	case *asSARIF:
		werr = res.WriteSARIF(os.Stdout)
	default:
		werr = res.WriteText(os.Stdout)
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "escort-lint: %v\n", werr)
		os.Exit(2)
	}

	// Exit codes: an incomplete run beats "findings" beats "clean" —
	// a broken package must not read as a passing lint.
	if len(res.LoadErrors) > 0 {
		fmt.Fprintf(os.Stderr, "escort-lint: %d finding(s), %d package(s) failed to load (run incomplete)\n",
			len(res.Findings), len(res.LoadErrors))
		os.Exit(2)
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "escort-lint: %d finding(s)\n", len(res.Findings))
		os.Exit(1)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// bound is one end-to-end metric's regression bound from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // share of the parent's median
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json in the
// working directory or its parent (the bench directory's).
func loadBounds() ([]bound, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var doc struct {
			EndToEnd []bound `json:"end_to_end"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return doc.EndToEnd, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..")
}

// readRecords reads the untraced runs of a -out file, grouped by
// workload in file order.
func readRecords(path string) (map[string][]runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string][]runRecord{}
	dec := json.NewDecoder(bytes.NewReader(b))
	for n := 1; dec.More(); n++ {
		var r runRecord
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: record %d: %w", path, n, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}

// Verdicts, per the landing rule in README.md.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs a gain can rest on.
const minPairs = 10

// judge compares the change's runs b against the parent's runs a,
// paired in order. A gain needs at least ten pairs, nine tenths of them
// won (ties count for neither), and medians further apart than the
// parent's quartile spread. A median worse than the parent's by more
// than bound is a regression. Where either side's spread is wider than
// bound, the metric is unresolved unless every change run beats every
// parent run.
func judge(a, b []float64, higherBetter bool, bnd float64) string {
	sign := 1.0
	if !higherBetter {
		sign = -1
	}
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	rel := func(spread, med float64) float64 {
		if med == 0 {
			return spread
		}
		return spread / math.Abs(med)
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	clearGain := sign*(mb-ma) > qa3-qa1 && wins*10 >= 9*pairs && pairs > 0
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				allBetter = false
			}
		}
	}
	spread := max(rel(qa3-qa1, ma), rel(qb3-qb1, mb))
	switch {
	case clearGain && pairs >= minPairs:
		return improved
	case clearGain:
		return unresolved // too few pairs to claim it
	case spread > bnd && !allBetter:
		return unresolved
	case rel(-sign*(mb-ma), ma) > bnd:
		return worse
	default:
		return unchanged
	}
}

// runCompare prints a verdict for every (workload, end-to-end metric)
// and for failed points, and returns the exit code: 1 when any is
// worse.
func runCompare(w io.Writer, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare parent.jsonl change.jsonl")
		return 2
	}
	bounds, err := loadBounds()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	parent, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	change, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-20s %-22s %30s %30s %8s %7s  %s\n",
		"workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "change", "wins", "verdict")
	for _, wl := range workloads {
		a, b := parent[wl.name], change[wl.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, bd := range bounds {
			va, vb := column(a, bd.Name), column(b, bd.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			higher := bd.Better == "higher"
			v := judge(va, vb, higher, bd.Bound)
			if v == worse {
				code = 1
			}
			qa1, ma, qa3 := quartiles(va)
			qb1, mb, qb3 := quartiles(vb)
			pairs, wins := min(len(va), len(vb)), 0
			for i := 0; i < pairs; i++ {
				if (higher && vb[i] > va[i]) || (!higher && vb[i] < va[i]) {
					wins++
				}
			}
			fmt.Fprintf(w, "%-20s %-22s %30s %30s %+7.2f%% %3d/%-3d  %s\n", wl.name, bd.Name,
				fmt.Sprintf("%.5g [%.5g %.5g]", ma, qa1, qa3), fmt.Sprintf("%.5g [%.5g %.5g]", mb, qb1, qb3),
				100*(mb-ma)/math.Abs(ma), wins, pairs, v)
		}
		// Failed points: any increase is a regression.
		fa, fb := failedFrac(a), failedFrac(b)
		v := unchanged
		if fb > fa {
			v, code = worse, 1
		}
		fmt.Fprintf(w, "%-20s %-22s %30.4g %30.4g %8s %7s  %s\n", wl.name, "failed_frac", fa, fb, "", "", v)
	}
	return code
}

func column(recs []runRecord, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

func failedFrac(recs []runRecord) float64 {
	var attempted, failed int
	for _, r := range recs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// minPoints is the fewest points a run measures, whatever its budget,
// so every run has quartiles.
const minPoints = 3

// span is one interval the bench timed around its own calls.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the process's meter started
	Dur    float64 `json:"dur_us"`
	Parent int     `json:"parent"` // index into the run's spans; -1 at top level
}

// pointResult is the host cost of one point.
type pointResult struct {
	HostSpeed  float64 `json:"host_speed"` // hostSpeed() just before the point; 0 in a traced run
	Setup      float64 `json:"setup_s"`    // wall seconds of set-up
	Timed      float64 `json:"timed_s"`    // wall seconds of the timed phases
	Conns      uint64  `json:"conns"`      // legitimate connections completed in them
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCPU      float64 `json:"gc_cpu_s"`
	UserCPU    float64 `json:"user_cpu_s"`
	Err        string  `json:"error,omitempty"`
}

// meter records spans and accumulates the current point's host cost.
// Set-up is timed on its own; the timed phases also collect heap
// allocation and GC CPU deltas.
type meter struct {
	epoch time.Time
	spans []span
	open  []int // indices of the spans in progress
	cur   pointResult
}

func newMeter() *meter { return &meter{epoch: time.Now()} }

func (m *meter) begin(name string) int {
	parent := -1
	if n := len(m.open); n > 0 {
		parent = m.open[n-1]
	}
	m.spans = append(m.spans, span{Name: name, Start: m.since(), Parent: parent})
	i := len(m.spans) - 1
	m.open = append(m.open, i)
	return i
}

func (m *meter) end(i int) time.Duration {
	m.open = m.open[:len(m.open)-1]
	s := &m.spans[i]
	s.Dur = m.since() - s.Start
	return time.Duration(s.Dur * 1e3)
}

func (m *meter) since() float64 { return float64(time.Since(m.epoch).Nanoseconds()) / 1e3 }

func (m *meter) setupPhase(name string, fn func() error) error {
	i := m.begin(name)
	err := fn()
	m.cur.Setup += m.end(i).Seconds()
	return err
}

func (m *meter) timedPhase(name string, fn func()) {
	before := readHostStats()
	i := m.begin(name)
	fn()
	m.cur.Timed += m.end(i).Seconds()
	after := readHostStats()
	m.cur.Mallocs += after.mallocs - before.mallocs
	m.cur.AllocBytes += after.bytes - before.bytes
	m.cur.GCCPU += after.gc - before.gc
	m.cur.UserCPU += after.user - before.user
}

type hostStats struct {
	mallocs, bytes uint64
	gc, user       float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/user:cpu-seconds"},
}

// readHostStats reads the allocation counters and the runtime's CPU
// estimates. The runtime refreshes the CPU classes at the end of each
// GC cycle, so a phase's GC fraction covers the cycles completed in it.
func readHostStats() hostStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return hostStats{
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gc:      cpuSamples[0].Value.Float64(),
		user:    cpuSamples[1].Value.Float64(),
	}
}

// childResult is what a workload's child process reports.
type childResult struct {
	Workload string          `json:"workload"`
	Points   []pointResult   `json:"points"`
	Failed   int             `json:"failed"`
	Digest   json.RawMessage `json:"digest,omitempty"` // the first correct point's

	// Traced runs only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Work   map[string]float64 `json:"work,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

// runWorkload measures points of w until budget is spent and checks
// each point's digest: against golden at seed 1, and against the run's
// first point at any other seed.
func runWorkload(w workload, seed uint64, budget time.Duration, traced bool, golden map[string]json.RawMessage) (*childResult, error) {
	res := &childResult{Workload: w.name}
	var want []byte
	if seed == 1 {
		g, ok := golden[w.name]
		if !ok {
			return nil, fmt.Errorf("golden.json has no digest for %s", w.name)
		}
		want = canonical(g)
	}

	var cpuProf bytes.Buffer
	var allocsBefore *profile
	var cpuBefore float64
	if traced {
		runtime.MemProfileRate = 4096
		runtime.GC()
		var err error
		if allocsBefore, err = allocsProfile(); err != nil {
			return nil, err
		}
		// StartCPUProfile asks for 100 Hz; a rate set first wins (the
		// runtime prints a warning to stderr saying so).
		runtime.SetCPUProfileRate(1000)
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return nil, err
		}
		cpuBefore = processCPU()
	}

	m := newMeter()
	start := time.Now()
	var last time.Duration
	var firstDigest any
	for len(res.Points) < minPoints || time.Since(start)+last <= budget {
		began := time.Now()
		gc := m.begin("GC")
		runtime.GC()
		m.end(gc)
		m.cur = pointResult{}
		if !traced {
			// The reference loop runs on a swept heap, and the point
			// starts on one free of the loop's garbage. A traced run
			// skips it: under the profiler the loop would slow with the
			// simulator and hide the profiler's cost.
			hs := m.begin("host speed")
			m.cur.HostSpeed = hostSpeed()
			runtime.GC()
			m.end(hs)
		}
		pt := m.begin("point")
		digest, conns, err := w.point(m, seed)
		m.end(pt)
		p := m.cur
		p.Conns = conns
		if err == nil {
			var got []byte
			if got, err = json.Marshal(digest); err == nil {
				if want == nil {
					want, firstDigest = got, digest
				} else if !bytes.Equal(got, want) {
					err = fmt.Errorf("simulated digest differs:\n got  %s\n want %s", got, want)
				} else if firstDigest == nil {
					firstDigest = digest
				}
			}
		}
		if err != nil {
			p.Err = err.Error()
			res.Failed++
		}
		res.Points = append(res.Points, p)
		last = time.Since(began)
	}
	if firstDigest != nil {
		res.Digest = want
	}
	if !traced {
		return res, nil
	}

	cpuSeconds := processCPU() - cpuBefore
	pprof.StopCPUProfile()
	runtime.GC()
	allocsAfter, err := allocsProfile()
	if err != nil {
		return nil, err
	}
	cpu, err := parseProfile(cpuProf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var conns uint64
	for _, p := range res.Points {
		conns += p.Conns
	}
	res.Layers = layerMetrics(cpu, cpuSeconds, allocsBefore, allocsAfter, conns)
	res.Work = workCounts(firstDigest)
	res.Spans = m.spans
	return res, nil
}

// processCPU returns the process's user plus system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func allocsProfile() (*profile, error) {
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return nil, err
	}
	p, err := parseProfile(b.Bytes())
	if err != nil {
		return nil, fmt.Errorf("allocs profile: %w", err)
	}
	return p, nil
}

// canonical re-encodes a JSON document compactly so digests compare
// byte for byte whatever the file's layout.
func canonical(raw json.RawMessage) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return raw
	}
	return b.Bytes()
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), so
// the spreads the bench prints match an outside check's.
func quartiles(values []float64) (q1, med, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), median(x), cut(3)
}

func median(values []float64) float64 {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return x[n/2]
	}
	return (x[n/2-1] + x[n/2]) / 2
}

package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
)

// Sample is one metrics tick: the virtual time it was taken at and
// the per-group resource totals read from the Ledger. Cycle totals
// across all groups sum to At — the Table 1 invariant — because every
// cycle the engine advances is charged to exactly one owner.
type Sample struct {
	At     sim.Cycles
	Cycles map[string]sim.Cycles
	Kmem   map[string]uint64
	Pages  map[string]uint64
	// Faults carries cumulative per-group fault counts; nil unless a
	// FaultRegistry is bound.
	Faults map[string]uint64
}

// Metrics samples the accounting Ledger on a virtual-time tick and
// exports the per-owner time series. Like the Tracer, all methods are
// nil-safe so instrumented code can hold a nil *Metrics when disabled.
type Metrics struct {
	csv io.Writer

	ledger      *core.Ledger
	faults      *FaultRegistry
	next        sim.Cycles
	samples     []Sample
	subscribers []func(Sample)
}

// NewSampler builds a sink-less Metrics: it samples the ledger on the
// virtual-time tick and feeds subscribers, but writes no CSV.
// The adaptive detector uses one when no metrics sink is configured,
// so arming it never changes whether sampling happens — only who
// consumes the samples.
func NewSampler() *Metrics { return &Metrics{} }

// Subscribe registers a per-sample observer. Subscribers run on every
// sample in registration order, so a later subscriber sees the effects
// of an earlier one within the same tick: the scenario harness
// subscribes after the adaptive detector and observes its demote/kill
// reaction on the sample that caused it. Subscribers must not mutate
// the sample; they may act on the kernel (the detector demotes/kills
// from inside its subscriber — the sampler runs at scheduler-loop
// boundaries where that is safe). Nil-safe: subscribing on a nil
// *Metrics is a no-op.
func (m *Metrics) Subscribe(fn func(Sample)) {
	if m == nil || fn == nil {
		return
	}
	m.subscribers = append(m.subscribers, fn)
}

// Bind attaches the Ledger the sampler reads. Nil-safe.
func (m *Metrics) Bind(l *core.Ledger) {
	if m == nil {
		return
	}
	m.ledger = l
}

// BindFaults attaches a fault-count registry; each sample then carries
// cumulative per-group fault counts and the exports gain faults:<group>
// columns. Nil-safe on both sides.
func (m *Metrics) BindFaults(r *FaultRegistry) {
	if m == nil {
		return
	}
	m.faults = r
}

// Poll takes a sample if virtual time has reached the next tick. The
// kernel calls it at scheduler-loop boundaries — the points where
// every burned cycle has been fully charged — so the recorded totals
// satisfy the Table 1 invariant exactly; the recorded At is the
// actual time of the boundary, not the nominal tick. Nil-safe and
// cheap when it is not yet time to sample.
func (m *Metrics) Poll(now sim.Cycles) {
	if m == nil || m.ledger == nil || now < m.next {
		return
	}
	m.sample(now)
	m.next = (now/DefaultMetricsInterval + 1) * DefaultMetricsInterval
}

// Final forces a last sample at the current time, so the series
// always covers the full run even if it ended between ticks. Nil-safe.
func (m *Metrics) Final(now sim.Cycles) {
	if m == nil || m.ledger == nil {
		return
	}
	if n := len(m.samples); n > 0 && m.samples[n-1].At == now {
		return
	}
	m.sample(now)
}

func (m *Metrics) sample(now sim.Cycles) {
	s := Sample{
		At:     now,
		Cycles: map[string]sim.Cycles{},
		Kmem:   map[string]uint64{},
		Pages:  map[string]uint64{},
	}
	// Dead owners are folded into their group's record, so this walks
	// the groups and the live owners only.
	for _, g := range m.ledger.Groups() {
		s.Cycles[g.Name] += g.Cycles
		s.Kmem[g.Name] += g.Kmem
		s.Pages[g.Name] += g.Pages
	}
	for _, o := range m.ledger.Live() {
		g := o.Group().Name
		c := o.Counters
		s.Cycles[g] += c.Cycles
		s.Kmem[g] += c.Kmem
		s.Pages[g] += c.Pages
	}
	if m.faults != nil {
		s.Faults = make(map[string]uint64, len(m.faults.groups))
		for _, g := range m.faults.groups {
			s.Faults[g.name] += g.count
		}
	}
	m.samples = append(m.samples, s)
	for _, fn := range m.subscribers {
		fn(s)
	}
}

// Samples returns the recorded series (nil on a nil receiver). The
// returned slice is the live backing store; don't mutate it.
func (m *Metrics) Samples() []Sample {
	if m == nil {
		return nil
	}
	return m.samples
}

// groups returns the union of group names across all samples, sorted,
// so the CSV has a stable column set even though owners appear over
// time (a group outlives its owners in the Ledger, so later samples
// carry every group seen earlier).
func (m *Metrics) groups() []string {
	set := map[string]bool{}
	for i := range m.samples {
		for g := range m.samples[i].Cycles {
			set[g] = true
		}
	}
	gs := make([]string, 0, len(set))
	for g := range set {
		gs = append(gs, g)
	}
	sort.Strings(gs)
	return gs
}

// faultGroups returns the sorted union of fault-count group names.
// Empty unless a FaultRegistry is bound and recorded something, so
// fault-free runs keep the pre-existing column set.
func (m *Metrics) faultGroups() []string {
	set := map[string]bool{}
	for i := range m.samples {
		for g := range m.samples[i].Faults {
			set[g] = true
		}
	}
	fgs := make([]string, 0, len(set))
	for g := range set {
		fgs = append(fgs, g)
	}
	sort.Strings(fgs)
	return fgs
}

// writeCSV emits one row per sample: at_cycles, total_cycles (the
// summed owner cycles, which equals at_cycles — exported so the
// invariant is checkable from the file alone), then cycles:<group>,
// kmem:<group>, pages:<group> columns in sorted group order.
func (m *Metrics) writeCSV() error {
	if m.csv == nil {
		return nil
	}
	w := bufio.NewWriterSize(m.csv, 1<<15)
	gs := m.groups()
	fgs := m.faultGroups()
	w.WriteString("at_cycles,total_cycles")
	for _, g := range gs {
		w.WriteString(",cycles:" + csvField(g))
	}
	for _, g := range gs {
		w.WriteString(",kmem:" + csvField(g))
	}
	for _, g := range gs {
		w.WriteString(",pages:" + csvField(g))
	}
	for _, g := range fgs {
		w.WriteString(",faults:" + csvField(g))
	}
	w.WriteByte('\n')
	var buf []byte
	for i := range m.samples {
		s := &m.samples[i]
		var total sim.Cycles
		for _, c := range s.Cycles {
			total += c
		}
		buf = buf[:0]
		buf = strconv.AppendUint(buf, uint64(s.At), 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, uint64(total), 10)
		for _, g := range gs {
			buf = append(buf, ',')
			buf = strconv.AppendUint(buf, uint64(s.Cycles[g]), 10)
		}
		for _, g := range gs {
			buf = append(buf, ',')
			buf = strconv.AppendUint(buf, s.Kmem[g], 10)
		}
		for _, g := range gs {
			buf = append(buf, ',')
			buf = strconv.AppendUint(buf, s.Pages[g], 10)
		}
		for _, g := range fgs {
			buf = append(buf, ',')
			buf = strconv.AppendUint(buf, s.Faults[g], 10)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return w.Flush()
}

// csvField quotes a column name if it contains CSV metacharacters
// (group names like "Active Paths (trusted)" contain none, but owner
// names are free-form).
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
}

// Package obs is the observability layer over the Escort simulation:
// a cycle-accurate event tracer and a per-owner metrics registry, both
// driven by the virtual clock. It makes the paper's central claim —
// that Escort attributes virtually 100% of cycles to the right owner
// (Table 1, §4.3.1) — observable *over time* rather than only as a
// final ledger snapshot, and it makes the §4.4 policies (SYN caps,
// 2 ms max-runtime kill, penalty box) visible when they fire.
//
// The tracer emits typed lifecycle events (engine fires, idle spans,
// syscalls, thread slices, domain crossings, path create/demux/kill,
// IOBuffer operations, policy triggers) carrying the virtual-cycle
// timestamp and the owner name, and renders them as Chrome trace_event
// JSON — loadable in Perfetto / chrome://tracing with one "process"
// per protection domain and one "thread" track per owner. The metrics
// registry samples the accounting Ledger on a configurable virtual-time
// tick and exports per-owner cycle/kmem/page time series as CSV; the
// Table 1 invariant (summed owner cycles == virtual clock) holds at
// every tick.
//
// Everything is disabled by default and free when disabled: subsystems
// hold a pre-resolved *Tracer (or *Metrics) pointer, every emit site is
// guarded by a nil check, and the methods themselves are nil-safe and
// allocation-free on the nil receiver.
package obs

import (
	"io"

	"repro/internal/sim"
)

// DefaultMetricsInterval is the metrics sampling tick: 10 ms of
// simulated time. Samples are taken at the first scheduler boundary at
// or after each nominal tick, so the recorded At is exact.
const DefaultMetricsInterval = 10 * sim.CyclesPerMillisecond

// Config selects which observability sinks are active. The zero value
// (or a nil *Config) disables everything.
type Config struct {
	// TraceJSON receives the Chrome trace_event JSON document, written
	// through a 64 KiB buffer as events happen and completed on Close.
	// Load it at https://ui.perfetto.dev or chrome://tracing.
	TraceJSON io.Writer

	// MetricsCSV receives the per-owner metrics time series as CSV,
	// written on Close.
	MetricsCSV io.Writer
}

// Observer bundles the live sinks built from a Config. Fields are nil
// when the corresponding sinks are disabled, so call sites guard with
// a single pointer test.
type Observer struct {
	Tracer  *Tracer
	Metrics *Metrics
	Faults  *FaultRegistry

	closed bool
}

// New builds an Observer from cfg. A nil cfg (or one with no sinks
// set) yields an Observer whose fields are all nil — the disabled,
// zero-overhead state.
func New(cfg *Config) *Observer {
	if cfg == nil {
		return &Observer{}
	}
	o := &Observer{}
	if cfg.TraceJSON != nil {
		o.Tracer = newTracer(cfg.TraceJSON)
	}
	if cfg.MetricsCSV != nil {
		o.Metrics = &Metrics{csv: cfg.MetricsCSV}
	}
	if o.Tracer != nil || o.Metrics != nil {
		o.Faults = NewFaultRegistry()
		o.Metrics.BindFaults(o.Faults)
	}
	return o
}

// Close completes the streamed trace JSON document, writes the
// metrics CSV, then closes any sink that implements io.Closer. It returns the first error, including a
// trace write that failed during the run. Safe on a nil or
// all-disabled Observer, and idempotent.
func (o *Observer) Close() error {
	if o == nil || o.closed {
		return nil
	}
	o.closed = true
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if o.Tracer != nil {
		keep(o.Tracer.flush())
		keep(closeWriter(o.Tracer.json))
	}
	if o.Metrics != nil {
		keep(o.Metrics.writeCSV())
		keep(closeWriter(o.Metrics.csv))
	}
	return first
}

func closeWriter(w io.Writer) error {
	if c, ok := w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

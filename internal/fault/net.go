package fault

import (
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// NetConfig sets the per-frame fault probabilities and the clock-driven
// outage windows of a network injector. The zero value injects nothing.
type NetConfig struct {
	// Drop is the per-frame loss probability.
	Drop float64
	// Corrupt is the per-frame bit-flip probability. Flips land in the
	// Ethernet payload so the IP/TCP checksums catch them (the receiver
	// sees a checksum mismatch, not silent data corruption); frames
	// without an IPv4 payload are dropped instead, since ARP has no
	// checksum to break.
	Corrupt float64
	// Dup is the per-frame duplication probability.
	Dup float64
	// Reorder is the probability a frame is held for ReorderDelay while
	// later frames overtake it.
	Reorder float64
	// ReorderDelay is how long a reordered frame is held
	// (DefaultReorderDelay when zero).
	ReorderDelay sim.Cycles
	// Jitter is the probability a frame is delayed by a uniform random
	// amount in (0, JitterMax].
	Jitter float64
	// JitterMax bounds the jitter delay (DefaultJitterMax when zero).
	JitterMax sim.Cycles
	// FlapPeriod/FlapDown model link flapping: within every FlapPeriod
	// of virtual time the link is down (all frames lost) for the first
	// FlapDown cycles. Zero period disables.
	FlapPeriod, FlapDown sim.Cycles
	// PartitionAt/PartitionFor model a network partition: every frame
	// sent in [PartitionAt, PartitionAt+PartitionFor) is lost. Zero
	// duration disables.
	PartitionAt, PartitionFor sim.Cycles
}

// Default hold times for reordered and jittered frames: long enough
// that back-to-back frames overtake, short relative to the 200 ms RTO.
const (
	DefaultReorderDelay = 1 * sim.CyclesPerMillisecond
	DefaultJitterMax    = 2 * sim.CyclesPerMillisecond
)

// enabled reports whether any fault can ever fire.
func (c NetConfig) enabled() bool {
	return c.Drop > 0 || c.Corrupt > 0 || c.Dup > 0 || c.Reorder > 0 ||
		c.Jitter > 0 || c.FlapPeriod > 0 || c.PartitionFor > 0
}

// NetStats counts injected network faults.
type NetStats struct {
	Dropped, Corrupted, Duplicated, Reordered, Delayed uint64
	FlapDropped, PartitionDropped                      uint64
}

// Total returns the total number of injected faults.
func (s NetStats) Total() uint64 {
	return s.Dropped + s.Corrupted + s.Duplicated + s.Reordered +
		s.Delayed + s.FlapDropped + s.PartitionDropped
}

// NetInjector interposes on netsim delivery: it wraps the Segment each
// NIC attaches to and perturbs frames per its NetConfig, drawing all
// randomness from one dedicated seeded generator and all timing from
// the engine's virtual clock. One injector can wrap several attachers
// (the testbed wraps both the hub and the switch) so every link in the
// topology sees the same fault climate.
type NetInjector struct {
	eng *sim.Engine
	rng *sim.Rand
	cfg NetConfig

	// Stats counts the faults injected so far.
	Stats NetStats

	tracer *obs.Tracer
	faults *obs.FaultRegistry
}

// NewNetInjector builds an injector over eng with the given config,
// seeded with seed.
func NewNetInjector(eng *sim.Engine, seed uint64, cfg NetConfig) *NetInjector {
	if cfg.ReorderDelay == 0 {
		cfg.ReorderDelay = DefaultReorderDelay
	}
	if cfg.JitterMax == 0 {
		cfg.JitterMax = DefaultJitterMax
	}
	return &NetInjector{eng: eng, rng: sim.NewRand(seed), cfg: cfg}
}

// BindObs attaches trace/counter sinks (both optional). The testbed
// calls it after the server is built, since the Observer lives there.
func (in *NetInjector) BindObs(tr *obs.Tracer, fr *obs.FaultRegistry) {
	if in == nil {
		return
	}
	in.tracer = tr
	in.faults = fr
}

// WrapAttacher returns an Attacher that attaches NICs to under and then
// interposes the injector on each NIC's segment. With no faults
// configured the underlying attacher is returned unwrapped, so the
// fast path is exactly the pre-injection code.
func (in *NetInjector) WrapAttacher(under netsim.Attacher) netsim.Attacher {
	if in == nil || !in.cfg.enabled() {
		return under
	}
	return wrapAttacher{in: in, under: under}
}

type wrapAttacher struct {
	in    *NetInjector
	under netsim.Attacher
}

func (w wrapAttacher) Attach(n *netsim.NIC) {
	w.under.Attach(n)
	n.SetSegment(&injSegment{in: w.in, inner: n.Segment()})
}

// injSegment is the per-NIC interposed segment.
type injSegment struct {
	in    *NetInjector
	inner netsim.Segment
}

// Send applies the configured faults to one frame, taking over the
// caller's reference to it: a lost frame releases it, a held or
// duplicated frame takes one more. Probability draws happen in a fixed
// order per frame, so a run's draw sequence depends only on the
// (deterministic) event order and the seed.
func (s *injSegment) Send(src *netsim.NIC, f netsim.Frame) {
	in := s.in
	cfg := &in.cfg
	now := in.eng.Now()

	if cfg.PartitionFor > 0 && now >= cfg.PartitionAt && now < cfg.PartitionAt+cfg.PartitionFor {
		f.Release()
		in.Stats.PartitionDropped++
		in.record("partition", src.Name, now)
		return
	}
	if cfg.FlapPeriod > 0 && now%cfg.FlapPeriod < cfg.FlapDown {
		f.Release()
		in.Stats.FlapDropped++
		in.record("linkFlap", src.Name, now)
		return
	}
	if cfg.Drop > 0 && in.rng.Float64() < cfg.Drop {
		f.Release()
		in.Stats.Dropped++
		in.record("netDrop", src.Name, now)
		return
	}
	if cfg.Corrupt > 0 && in.rng.Float64() < cfg.Corrupt {
		corrupted, ok := in.corrupt(f)
		f.Release()
		if !ok {
			// No checksummed payload to break: lose the frame instead.
			in.Stats.Dropped++
			in.record("netDrop", src.Name, now)
			return
		}
		f = corrupted
		in.Stats.Corrupted++
		in.record("netCorrupt", src.Name, now)
	}
	dup := cfg.Dup > 0 && in.rng.Float64() < cfg.Dup
	if dup {
		f.Retain()
		in.Stats.Duplicated++
		in.record("netDup", src.Name, now)
	}

	var delay sim.Cycles
	if cfg.Reorder > 0 && in.rng.Float64() < cfg.Reorder {
		delay = cfg.ReorderDelay
		in.Stats.Reordered++
		in.record("netDelay", src.Name, now)
	} else if cfg.Jitter > 0 && in.rng.Float64() < cfg.Jitter {
		delay = in.rng.Cycles(cfg.JitterMax) + 1
		in.Stats.Delayed++
		in.record("netDelay", src.Name, now)
	}

	if delay > 0 {
		// The held frame keeps the sender's reference until it goes out.
		in.eng.After(delay, func() { s.inner.Send(src, f) })
		if dup {
			s.inner.Send(src, f)
		}
		return
	}
	s.inner.Send(src, f)
	if dup {
		s.inner.Send(src, f)
	}
}

// corrupt returns a new frame holding a copy of an IPv4 frame with one
// random bit of its Ethernet payload flipped (f's storage may be shared
// with the frame's other deliveries, so it is never written). It
// returns ok=false for frames it cannot safely corrupt (too short, or
// not IPv4 — ARP carries no checksum, so a flipped bit there would
// silently poison state rather than surface as loss).
func (in *NetInjector) corrupt(f netsim.Frame) (netsim.Frame, bool) {
	const ethLen = 14
	d := f.Data
	if len(d) <= ethLen+1 || d[12] != 0x08 || d[13] != 0x00 {
		return netsim.Frame{}, false
	}
	c := netsim.NewFrame(f.Dst, f.Src, len(d))
	copy(c.Data, d)
	bit := ethLen*8 + in.rng.Intn((len(d)-ethLen)*8)
	c.Data[bit/8] ^= 1 << (bit % 8)
	return c, true
}

// record emits the trace instant and bumps the per-NIC fault counter.
func (in *NetInjector) record(kind, nic string, at sim.Cycles) {
	if tr := in.tracer; tr != nil {
		tr.Fault(kind, nic, "", at)
	}
	in.faults.Inc(nic)
}

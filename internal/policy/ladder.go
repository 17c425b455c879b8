package policy

import (
	"repro/internal/kernel"
	"repro/internal/path"
	"repro/internal/sim"
)

// Ladder is the graduated response every policy escalates through:
// demote a path's allocation first, pathKill it when demotion is not
// enough. Containment (runaways), the watchdog (hung paths), the
// session reaper (trickling sessions) and the adaptive detector
// (learned-baseline anomalies) are all just signals feeding it — what
// differs between them is *when* they escalate, never *how*. Each step
// is traced as a policy event and counted; policies embed a Ladder so
// their counters stay per-policy while the mechanics live here. The
// penalty box rides the kill rung for free: pathKill reports the dead
// connection's source through tcp.Module.OnOffender.
type Ladder struct {
	k   *kernel.Kernel
	mgr *path.Manager

	// Demotions and Kills count escalations; ReclaimedCycles totals the
	// pathKill teardown cost.
	Demotions       uint64
	Kills           uint64
	ReclaimedCycles sim.Cycles
}

// NewLadder returns a response ladder over the manager's paths.
func NewLadder(k *kernel.Kernel, mgr *path.Manager) *Ladder {
	return &Ladder{k: k, mgr: mgr}
}

// Demote puts the path on a minimal allocation (DemotePriority). The
// event string names the policy rung for the trace ("watchdogDemote",
// ...).
func (l *Ladder) Demote(p *path.Path, event string) {
	DemotePriority(p)
	l.Demotions++
	if tr := l.k.Tracer(); tr != nil {
		tr.Policy(event, p.PathName(), "", l.k.Engine().Now())
	}
}

// Kill is pathKill: reclaim everything the path owns and return the
// teardown cost.
func (l *Ladder) Kill(p *path.Path, event string) sim.Cycles {
	name := p.PathName()
	l.Kills++
	c := l.mgr.Kill(p)
	l.ReclaimedCycles += c
	if tr := l.k.Tracer(); tr != nil {
		tr.Policy(event, name, "", l.k.Engine().Now())
	}
	return c
}

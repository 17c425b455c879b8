package policy

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/module"
	"repro/internal/path"
	"repro/internal/proto/tcp"
	"repro/internal/sim"
)

// Session-reaper defaults. The trickle threshold is calibrated against
// the cost model: a legitimate request/response connection moves its
// bytes for a few tens of charged cycles each, while a held-open
// session keeps paying setup, timer and per-segment costs against a
// byte count that barely moves — slowloris-style holders sit orders of
// magnitude above the threshold, ordinary slow clients do not.
const (
	// DefaultReaperMinAge is the minimum established age before a
	// session is judged at all: every legitimate request in the Figure 8
	// workload completes well inside it.
	DefaultReaperMinAge = 500 * sim.CyclesPerMillisecond
	// DefaultReaperCyclesPerByte is the asymmetry threshold: an
	// established session older than MinAge whose owner has burned more
	// than this many cycles per payload byte is a trickle.
	DefaultReaperCyclesPerByte = 2000
)

// SessionSource is the connection-table view the reaper scans;
// *tcp.Module implements it.
type SessionSource interface {
	EachConn(func(tcp.ConnStats))
}

// SessionReaper is the low-and-slow counterpart of the watchdog: the
// watchdog hunts paths with queued work and no progress, the reaper
// hunts established sessions with age and no bytes. Detection is the
// ledger's cycles-per-byte asymmetry — exactly the data-driven signal
// volume thresholds miss, because a slowloris holder is quiet, not
// loud. Escalation reuses the existing ladder: demote the session's
// allocation first, pathKill it a scan later, and let the kill feed
// the penalty box through the module's offender report.
type SessionReaper struct {
	*Ladder
	src    SessionSource
	minAge sim.Cycles

	demoted map[module.PathRef]bool
}

// EnableSessionReaper arms the reaper on its own owner, so its scan
// cost is a distinct ledger row like the watchdog's and the TCP master
// event's. Sessions no older than minAge are not judged (zero:
// DefaultReaperMinAge); the scan runs every minAge/4.
func EnableSessionReaper(k *kernel.Kernel, mgr *path.Manager, src SessionSource, minAge sim.Cycles) *SessionReaper {
	if minAge == 0 {
		minAge = DefaultReaperMinAge
	}
	r := &SessionReaper{Ladder: NewLadder(k, mgr), src: src, minAge: minAge,
		demoted: make(map[module.PathRef]bool)}
	owner := k.NewOwner("Session Reaper", core.DomainOwner)
	k.RegisterEvent(owner, "Session Reaper", minAge/4, minAge/4, r.scan)
	return r
}

// scan walks the connection table; demotion state is rebuilt each pass
// so dead paths cannot pin entries.
func (r *SessionReaper) scan(ctx *kernel.Ctx) {
	model := r.k.Model()
	ctx.Use(model.EventOp)
	now := ctx.Now()
	next := make(map[module.PathRef]bool, len(r.demoted))
	r.src.EachConn(func(cs tcp.ConnStats) {
		ctx.Use(model.AccountingOp)
		if cs.State != tcp.StateEstablished || !cs.Path.Alive() {
			return
		}
		// Strictly older than MinAge: a session at exactly MinAge has not
		// yet had its grace period and must not be judged.
		if now-cs.Since <= r.minAge {
			return
		}
		owner := cs.Path.PathOwner()
		if owner == nil {
			return
		}
		bytes := cs.BytesIn + cs.BytesOut
		if bytes > 0 && owner.Counters.Cycles < DefaultReaperCyclesPerByte*sim.Cycles(bytes) {
			return // moving bytes at a sane cost: leave it alone
		}
		p, ok := cs.Path.(*path.Path)
		if !ok {
			return
		}
		if !r.demoted[cs.Path] {
			r.Demote(p, "reaperDemote")
			next[cs.Path] = true
			return
		}
		// Still trickling a scan after demotion: reclaim. The kill path
		// reports the source as an offender (tcp.Module.reapKilled →
		// OnOffender), so repeat holders land in the penalty box.
		r.Kill(p, "reaperKill")
	})
	r.demoted = next
}

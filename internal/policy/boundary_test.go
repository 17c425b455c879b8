package policy

import (
	"testing"

	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/proto/tcp"
	"repro/internal/sim"
)

// fakeConns is a SessionSource serving a synthetic connection table,
// so the reaper's judgment can be probed at exact ages without
// threading real segments through the TCP module. Since is computed
// against the clock when the reaper scans, pinning the session's age
// at judgment time to the cycle — scheduler and event-charge overhead
// between the scan's nominal period and its actual clock reading
// cannot skew the boundary.
type fakeConns struct {
	now  func() sim.Cycles
	age  sim.Cycles
	path module.PathRef
}

func (f *fakeConns) EachConn(fn func(tcp.ConnStats)) {
	fn(tcp.ConnStats{
		Path:  f.path,
		State: tcp.StateEstablished,
		Since: f.now() - f.age,
	})
}

// TestReaperMinAgeBoundary pins the grace-period edge: a session whose
// established age is exactly MinAge at scan time has not yet used up
// its grace and must not be judged; one cycle older is fair game. The
// sessions carry zero bytes, so any judged session is demoted — the
// age gate is the only thing under test.
func TestReaperMinAgeBoundary(t *testing.T) {
	const (
		minAge   = 10 * sim.CyclesPerMillisecond
		interval = minAge / 4 // the derived scan period: first scan fires here
	)
	cases := []struct {
		name    string
		age     sim.Cycles // established age at the first scan
		demoted bool
	}{
		{"well under MinAge", minAge / 2, false},
		{"exactly at MinAge", minAge, false},
		{"one cycle past MinAge", minAge + 1, true},
		{"well past MinAge", 2 * minAge, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, mgr := newEnv(t)
			p, err := mgr.Create(nil, "held", "spin", lib.Attrs{})
			if err != nil {
				t.Fatal(err)
			}
			src := &fakeConns{now: k.Engine().Now, age: tc.age, path: module.PathRef(p)}
			r := EnableSessionReaper(k, mgr, src, minAge)

			// Run to just past the first scan: the second (at 2×interval)
			// would escalate every demoted case to a kill.
			k.RunFor(interval + interval/2)
			if got := r.Demotions > 0; got != tc.demoted {
				t.Fatalf("demotions = %d, want demoted=%v (age %d vs MinAge %d)",
					r.Demotions, tc.demoted, tc.age, sim.Cycles(minAge))
			}
			if r.Kills != 0 {
				t.Fatalf("kills = %d after a single scan; the ladder must demote first", r.Kills)
			}
		})
	}
}

// Fixture for the obsguard analyzer: every obs emit must go through a
// pre-resolved pointer behind a nil check, with no allocation hoisted
// above the guard.
package a

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

type kernel struct {
	tracer  *obs.Tracer
	metrics *obs.Metrics
	name    string
}

func (k *kernel) tr() *obs.Tracer { return k.tracer }

func (k *kernel) goodGuarded(began, ended sim.Cycles) {
	tr := k.tracer
	if tr != nil {
		tr.Idle(began, ended)
	}
}

func (k *kernel) goodEarlyOut(began, ended sim.Cycles) {
	tr := k.tracer
	if tr == nil {
		return
	}
	tr.Idle(began, ended)
}

func (k *kernel) goodQuery() int {
	return len(k.metrics.Samples()) // queries are exempt: they run offline
}

func (k *kernel) badUnguarded(began, ended sim.Cycles) {
	k.tracer.Idle(began, ended) // want `unguarded obs emit Idle`
}

func (k *kernel) badChain(began, ended sim.Cycles) {
	k.tr().Idle(began, ended) // want `obs emit Idle through a call chain`
}

func (k *kernel) badHoisted(began, ended sim.Cycles) {
	label := fmt.Sprintf("kernel %s", k.name) // want `allocating expression assigned to label before the obs nil-check guard`
	tr := k.tracer
	if tr != nil {
		tr.Syscall(0, label, "op", began, ended, false)
	}
}

func (k *kernel) goodAllocInsideGuard(began, ended sim.Cycles) {
	tr := k.tracer
	if tr != nil {
		label := fmt.Sprintf("kernel %s", k.name) // paid only when tracing
		tr.Syscall(0, label, "op", began, ended, false)
	}
}

package core

import (
	"fmt"
	"math"
)

// SchedulerState is the resumable cross-slot state of a GreFar scheduler —
// everything a scheduler remembers between Decide calls beyond its static
// configuration. Exporting it before shutdown and restoring it into a
// freshly constructed scheduler (same cluster, same Config) makes the new
// instance's decision stream byte-identical to the uninterrupted one, warm
// starts included. All fields are exported so the state serializes with
// encoding/gob.
//
// The state is intentionally small: the per-slot solver workspace
// (decideScratch) is derived and rebuilt by New; only the cross-slot memory
// listed here is durable.
type SchedulerState struct {
	// Warm is the previous slot's (h, b) iterate in slotLayout order, the
	// seed of the next warm-started solve. Nil for schedulers whose
	// configuration never reaches the convex path (beta = 0 with a linear
	// tariff).
	Warm []float64
	// WarmValid reports whether Warm holds a real iterate (false before the
	// first convex solve).
	WarmValid bool
	// WarmHits, WarmRepairs, and WarmFallbacks are the cumulative warm-start
	// outcome counters surfaced in telemetry SolveStats.
	WarmHits, WarmRepairs, WarmFallbacks int
	// OptsReported latches whether the effective solver options were already
	// attached to a telemetry event, so a restored scheduler does not attach
	// them a second time mid-stream.
	OptsReported bool
}

// ExportState captures the scheduler's resumable cross-slot state. The
// returned state owns its memory; the scheduler may keep deciding afterwards
// without invalidating it.
func (g *GreFar) ExportState() *SchedulerState {
	st := &SchedulerState{
		WarmValid:     g.ws.warmValid,
		WarmHits:      g.warmHits,
		WarmRepairs:   g.warmRepairs,
		WarmFallbacks: g.warmFallbacks,
		OptsReported:  g.optsReported,
	}
	if g.ws.warm != nil {
		st.Warm = append([]float64(nil), g.ws.warm...)
	}
	return st
}

// RestoreState replaces the scheduler's cross-slot state with a previously
// exported one. The scheduler must have been constructed for the same
// cluster shape (the warm iterate's length is checked against the solver
// layout) and should carry the same configuration, or the restored warm
// iterate seeds a different optimization than the one it came from. A nil
// state is a no-op.
func (g *GreFar) RestoreState(st *SchedulerState) error {
	if st == nil {
		return nil
	}
	if st.Warm != nil {
		if g.ws.warm == nil {
			return fmt.Errorf("%w: state carries a warm iterate but this configuration has no convex path", ErrBadConfig)
		}
		if len(st.Warm) != len(g.ws.warm) {
			return fmt.Errorf("%w: warm iterate has %d variables, solver layout has %d",
				ErrBadConfig, len(st.Warm), len(g.ws.warm))
		}
		for i, v := range st.Warm {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: warm iterate variable %d is not finite", ErrBadConfig, i)
			}
		}
		copy(g.ws.warm, st.Warm)
	}
	if st.WarmValid && st.Warm == nil {
		return fmt.Errorf("%w: state marks a warm iterate valid but carries none", ErrBadConfig)
	}
	g.ws.warmValid = st.WarmValid
	g.warmHits = st.WarmHits
	g.warmRepairs = st.WarmRepairs
	g.warmFallbacks = st.WarmFallbacks
	g.optsReported = st.OptsReported
	return nil
}

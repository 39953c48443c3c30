package core

import (
	"grefar/internal/model"
	"grefar/internal/solve"
)

// decideScratch is the reusable per-scheduler workspace of the Decide hot
// path. Every slot decision needs the same fixed-size buffers — the linear
// slot coefficients, the routing order, the greedy exchange's segment and
// demand lists, and (when beta > 0) the flat variable vectors of the convex
// solver — and a 2000-slot sweep calls Decide 2000 times, so allocating them
// fresh each slot dominated the allocation profile (see
// BenchmarkSlotDecision). The workspace is allocated once in New, sized by
// the cluster, and owned exclusively by its GreFar instance: Decide is
// therefore NOT safe for concurrent calls on one scheduler. Parallel sweeps
// (internal/runner) construct one scheduler per run, which keeps every
// workspace single-owner; the repo-wide -race run verifies this.
//
// Ownership rule for buffers handed outward: anything that escapes Decide —
// the returned *model.Action, telemetry events and their slices — is still
// allocated fresh per call. Scratch covers only solver-internal state whose
// lifetime ends when Decide returns.
type decideScratch struct {
	layout slotLayout

	// Routing order buffer (decideRouting).
	order []int

	// Cheapest-first server order per data center for busy-server
	// provisioning: availability changes per slot but the energy-per-work
	// rate of a server type does not, so the order is cluster-static.
	provOrder [][]int

	// Frank-Wolfe workspace, sized by the first convex solve.
	fw solve.FWWorkspace

	// Sparse representation; nil on the dense path. The sparse path reads
	// none of the dense buffers below, so they stay nil alongside it.
	sparse *sparseSlot

	// Dense linear slot data (SlotCoefficients output).
	cH, cB, hCap [][]float64

	// Dense greedy exchange workspace, shared by the direct beta = 0 path
	// and the Frank-Wolfe linear oracle (whose calls are sequential within
	// one Decide, so one workspace serves both).
	lin linearScratch

	// Dense quadratic (beta > 0 / non-linear tariff) path, allocated only
	// when the configuration can take it.
	linear  []float64 // linear coefficients over the flat (h, b) vector
	x0      []float64 // Frank-Wolfe starting point
	gradH   [][]float64
	gradB   [][]float64
	process [][]float64 // clamped h result
	obj     *slotObjective
	wrapped solve.Objective

	// Cross-slot warm start (Config.WarmStart): warm holds the previous
	// slot's (h, b) iterate in slotLayout order, and warmValid reports
	// whether it exists (false before the first solve). The buffer follows
	// the workspace's single-owner rule — it is this scheduler's memory of
	// its own trajectory, so sharing a scheduler across runs would leak one
	// run's iterate into another; one scheduler per run keeps it sound.
	// Decide repairs the iterate against the current slot's caps before use
	// and falls back to the zero start when repair fails (see
	// repairWarmStart).
	warm      []float64
	warmValid bool
}

// linearScratch holds the buffers of one greedy-exchange slot solve.
type linearScratch struct {
	out  linearAssignment
	segs []segment
	jobs []jobDemand
}

// newLinearScratch sizes a greedy-exchange workspace for the cluster.
func newLinearScratch(c *model.Cluster) *linearScratch {
	ws := &linearScratch{}
	ws.out.process = newMatrixNJ(c)
	ws.out.busy = newMatrixNK(c)
	ws.segs = make([]segment, 0, maxServerTypes(c))
	ws.jobs = make([]jobDemand, 0, c.J())
	return ws
}

// newDecideScratch builds the workspace for one scheduler: the sparse
// representation when sparse is set, the dense buffers otherwise. The warm
// iterate and the dense quadratic-path buffers are allocated only when quad
// is set (beta > 0 or a non-linear tariff can reach Frank-Wolfe).
func newDecideScratch(c *model.Cluster, quad, sparse bool) *decideScratch {
	ws := &decideScratch{
		layout: newSlotLayout(c),
		order:  make([]int, 0, c.N()),
	}
	ws.provOrder = make([][]int, c.N())
	for i := 0; i < c.N(); i++ {
		ws.provOrder[i] = model.RateOrder(c.DataCenters[i])
	}
	if quad {
		ws.warm = make([]float64, ws.layout.total)
	}
	if sparse {
		ws.sparse = newSparseSlot(c)
		return ws
	}
	ws.cH = newMatrixNJ(c)
	ws.cB = newMatrixNK(c)
	ws.hCap = newMatrixNJ(c)
	ws.lin = *newLinearScratch(c)
	if quad {
		ws.linear = make([]float64, ws.layout.total)
		ws.x0 = make([]float64, ws.layout.total)
		ws.gradH = newMatrixNJ(c)
		ws.gradB = newMatrixNK(c)
		ws.process = newMatrixNJ(c)
	}
	return ws
}

// newMatrixNJ builds an N x J matrix backed by one flat allocation.
func newMatrixNJ(c *model.Cluster) [][]float64 {
	flat := make([]float64, c.N()*c.J())
	m := make([][]float64, c.N())
	for i := range m {
		m[i] = flat[i*c.J() : (i+1)*c.J() : (i+1)*c.J()]
	}
	return m
}

// newMatrixNK builds the ragged N x K(i) matrix backed by one flat
// allocation.
func newMatrixNK(c *model.Cluster) [][]float64 {
	total := 0
	for i := 0; i < c.N(); i++ {
		total += c.K(i)
	}
	flat := make([]float64, total)
	m := make([][]float64, c.N())
	off := 0
	for i := range m {
		m[i] = flat[off : off+c.K(i) : off+c.K(i)]
		off += c.K(i)
	}
	return m
}

func maxServerTypes(c *model.Cluster) int {
	max := 0
	for i := 0; i < c.N(); i++ {
		if k := c.K(i); k > max {
			max = k
		}
	}
	return max
}

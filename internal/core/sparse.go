package core

import (
	"fmt"
	"math"

	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/solve"
	"grefar/internal/telemetry"
)

// This file implements the sparse slot representation, the default slot
// solver path whenever it applies (see sparseApplies): an active-pair index
// over the (i, j) processing variables that skips every pair with zero
// backlog and zero warm-start mass, threaded through the coefficient build,
// the objective/gradient, the greedy oracle, and the Frank-Wolfe workspace.
// At production scale most pairs are inactive — a job type's data lives at a
// handful of sites and most queues are empty — so the N*J vectors the dense
// path iterates over are mostly exact zeros. The compact layout makes every
// solver pass O(active) instead of O(N*J) while producing iterates
// bit-identical to the dense reference path: an inactive pair has
// x = v = dir = 0 on the dense path, contributing exactly +0.0 to every inner
// product, and the compact index preserves the dense (i, j) lexicographic
// order, so the fairness account sums, the greedy candidate lists, and the
// line-search scalars all come out float-for-float equal.

// sparseSlot is the active-pair slot representation owned by one scheduler.
// Pair (i, j) is active when j is eligible at i and the pair has positive
// local backlog or positive warm-start mass; only active pairs get compact h
// variables. The b variables are never sparsified — server-type counts are
// small and every site provisions.
type sparseSlot struct {
	c *model.Cluster
	l slotLayout

	// eligible[i*J+j] is cluster-static: j in D_j at site i.
	eligible []bool

	// Active-pair index. Compact h variable t covers the dense pair
	// denseIdx[t] = i*J+j with job type pairJ[t]; a site's compact h
	// variables are the contiguous run [siteOff[i], siteOff[i+1]), in
	// ascending j — the dense lexicographic order restricted to the index.
	active   []bool // dense membership mask, len N*J
	pairJ    []int
	denseIdx []int
	siteOff  []int // len N+1
	bOffC    []int // bOffC[i] is the first compact b index of site i
	nH       int   // compact h count
	total    int   // nH + sum_i K(i)

	// Compact slot coefficients: linear is [cH | cB] in compact layout
	// (cH[t] = -q for the pair, cB = V*phi*p as in slotCoefficientsInto);
	// hCap[t] is the pair's processing cap.
	linear []float64
	hCap   []float64

	// Compact fairness maps: account/demand per compact h variable.
	account []int
	demand  []float64

	// Compact convex objective over the compact layout (beta > 0).
	obj     *slotObjective
	wrapped solve.Objective

	// Inputs backing the incremental refresh: between ticks only queue
	// contents and prices move, so only rows whose inputs moved are
	// recomputed, and the index itself is rebuilt only when the active
	// membership changes.
	prevLocal []float64 // dense N*J backlog snapshot
	prevPrice []float64
	prevValid bool

	// Refresh counters: full index rebuilds vs in-place site-row refreshes.
	rebuilds, rowRefreshes int

	// Solver buffers in compact layout.
	x0, xw, vertex []float64

	// Greedy-exchange buffers, reused site by site.
	segs []segment
	jobs []jobDemand
}

func newSparseSlot(c *model.Cluster) *sparseSlot {
	nJ := c.N() * c.J()
	sp := &sparseSlot{
		c:         c,
		l:         newSlotLayout(c),
		eligible:  make([]bool, nJ),
		active:    make([]bool, nJ),
		siteOff:   make([]int, 0, c.N()+1),
		bOffC:     make([]int, c.N()),
		prevLocal: make([]float64, nJ),
		prevPrice: make([]float64, c.N()),
	}
	for j, jt := range c.JobTypes {
		for _, i := range jt.Eligible {
			sp.eligible[i*c.J()+j] = true
		}
	}
	sp.segs = make([]segment, 0, maxServerTypes(c))
	sp.jobs = make([]jobDemand, 0, c.J())
	return sp
}

// wantActive is the membership rule: eligible, and carrying either backlog
// or warm-start mass (warm nil means no warm iterate is in play).
func (sp *sparseSlot) wantActive(idx int, q float64, warm []float64) bool {
	return sp.eligible[idx] && (q > 0 || (warm != nil && warm[idx] > 0))
}

// refresh brings the compact representation up to date with this slot's
// inputs. If the active membership is unchanged since the previous slot, only
// the coefficient rows whose backing inputs (a pair's backlog, a site's
// price) moved are recomputed in place; otherwise the whole index is rebuilt.
// In-place refreshed values are computed by the same expressions as a
// rebuild, so the two paths are exactly equivalent (FuzzSparseRefresh pins
// this).
func (sp *sparseSlot) refresh(cfg Config, st *model.State, q queue.Lengths, warm []float64) {
	c := sp.c
	n, nJ := c.N(), c.J()
	if !sp.prevValid {
		sp.rebuildIndex(cfg, st, q, warm)
		return
	}
	for i := 0; i < n; i++ {
		row := q.Local[i]
		base := i * nJ
		for j := 0; j < nJ; j++ {
			if sp.wantActive(base+j, row[j], warm) != sp.active[base+j] {
				sp.rebuildIndex(cfg, st, q, warm)
				return
			}
		}
	}
	// Membership unchanged: refresh only the rows whose inputs moved.
	for i := 0; i < n; i++ {
		touched := false
		for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
			qv := q.Local[i][sp.pairJ[t]]
			if qv == sp.prevLocal[sp.denseIdx[t]] {
				continue
			}
			sp.prevLocal[sp.denseIdx[t]] = qv
			sp.linear[t] = -qv
			sp.hCap[t] = processBudgetFor(c.JobTypes[sp.pairJ[t]], qv)
			touched = true
		}
		if st.Price[i] != sp.prevPrice[i] {
			sp.prevPrice[i] = st.Price[i]
			b := sp.bOffC[i]
			for k, stype := range c.DataCenters[i].Servers {
				sp.linear[b+k] = cfg.V * st.Price[i] * stype.Power
			}
			touched = true
		}
		if touched {
			sp.rowRefreshes++
		}
	}
}

// rebuildIndex reconstructs the active-pair index and every compact
// coefficient from scratch, and snapshots the inputs for the next
// incremental refresh.
func (sp *sparseSlot) rebuildIndex(cfg Config, st *model.State, q queue.Lengths, warm []float64) {
	c := sp.c
	n, nJ := c.N(), c.J()
	sp.pairJ = sp.pairJ[:0]
	sp.denseIdx = sp.denseIdx[:0]
	sp.siteOff = sp.siteOff[:0]
	for i := 0; i < n; i++ {
		sp.siteOff = append(sp.siteOff, len(sp.pairJ))
		row := q.Local[i]
		base := i * nJ
		for j := 0; j < nJ; j++ {
			idx := base + j
			want := sp.wantActive(idx, row[j], warm)
			sp.active[idx] = want
			if want {
				sp.pairJ = append(sp.pairJ, j)
				sp.denseIdx = append(sp.denseIdx, idx)
			}
			sp.prevLocal[idx] = row[j]
		}
	}
	sp.siteOff = append(sp.siteOff, len(sp.pairJ))
	sp.nH = len(sp.pairJ)
	nB := 0
	for i := 0; i < n; i++ {
		sp.bOffC[i] = sp.nH + nB
		nB += c.K(i)
	}
	sp.total = sp.nH + nB

	sp.linear = resizeFloats(sp.linear, sp.total)
	sp.hCap = resizeFloats(sp.hCap, sp.nH)
	sp.account = resizeInts(sp.account, sp.nH)
	sp.demand = resizeFloats(sp.demand, sp.nH)
	for i := 0; i < n; i++ {
		for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
			j := sp.pairJ[t]
			jt := c.JobTypes[j]
			qv := q.Local[i][j]
			sp.linear[t] = -qv
			sp.hCap[t] = processBudgetFor(jt, qv)
			sp.account[t] = jt.Account
			sp.demand[t] = jt.Demand
		}
		sp.prevPrice[i] = st.Price[i]
		b := sp.bOffC[i]
		for k, stype := range c.DataCenters[i].Servers {
			sp.linear[b+k] = cfg.V * st.Price[i] * stype.Power
		}
	}
	sp.prevValid = true
	sp.rebuilds++
}

// ensureObjective (re)binds the compact convex objective to the current
// index and slot total. The slotObjective struct is reused; only its slice
// headers and totals move.
func (sp *sparseSlot) ensureObjective(cfg Config, total float64) {
	if sp.obj == nil {
		m := sp.c.M()
		sp.obj = &slotObjective{
			vbeta:     cfg.V * cfg.Beta,
			term:      cfg.Fairness,
			m:         m,
			alloc:     make([]float64, m),
			allocGrad: make([]float64, m),
			allocDir:  make([]float64, m),
		}
		sp.wrapped = wrapSlotObjective(sp.obj)
	}
	sp.obj.linear = sp.linear
	sp.obj.nH = sp.nH
	sp.obj.account = sp.account
	sp.obj.demand = sp.demand
	sp.obj.total = total
}

// oracle returns the compact greedy linear-minimization oracle: the same
// per-site exchange as slotOracleWS, restricted to active pairs, writing a
// vertex in compact layout.
func (sp *sparseSlot) oracle(st *model.State) solve.LinearOracle {
	return func(grad, out []float64) {
		for j := range out {
			out[j] = 0
		}
		for i := 0; i < sp.c.N(); i++ {
			// Negative b costs clamp rather than fail, so no error.
			_ = sp.greedySite(st, i, grad, out, true)
		}
	}
}

// greedySite runs one site's greedy exchange over the site's active pairs
// with the compact cost vector cost, adding the chosen vertex into out
// (caller-zeroed, compact layout). With clampNegB, negative b costs clamp to
// zero exactly as in slotOracleWS; without it they are an error, mirroring
// solveLinearSlotWS.
func (sp *sparseSlot) greedySite(st *model.State, i int, cost, out []float64, clampNegB bool) error {
	c := sp.c
	segs := sp.segs[:0]
	for k, stype := range c.DataCenters[i].Servers {
		cb := cost[sp.bOffC[i]+k]
		if cb < 0 {
			if !clampNegB {
				return fmt.Errorf("data center %d server type %d: negative capacity cost %v", i, k, cb)
			}
			cb = 0
		}
		capWork := st.Avail[i][k] * stype.Speed
		if capWork <= 0 {
			continue
		}
		segs = append(segs, segment{
			serverType: k,
			cap:        capWork,
			density:    cb / stype.Speed,
			speed:      stype.Speed,
		})
	}
	sortSegsByDensity(segs)
	jobs := sp.jobs[:0]
	for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
		if cost[t] >= 0 || sp.hCap[t] <= 0 {
			continue
		}
		d := sp.demand[t]
		jobs = append(jobs, jobDemand{
			job:     t,
			work:    sp.hCap[t] * d,
			density: -cost[t] / d,
			demand:  d,
		})
	}
	sortJobsByDensity(jobs)
	sp.segs, sp.jobs = segs, jobs
	greedyExchange(segs, jobs, out, sp.bOffC[i])
	return nil
}

// greedyExchange is the exchange core of solveLinearSlotWS operating on a
// flat output vector: jobs[].job indexes out directly for the h side and a
// segment's server type maps to out[bBase+k]. Both lists must be pre-sorted
// (jobs by descending reward density, segs by ascending cost density); the
// arithmetic — take splitting, the 1e-15 epsilons, the accumulation order —
// replicates solveLinearSlotWS exactly so vertices come out bit-identical.
func greedyExchange(segs []segment, jobs []jobDemand, out []float64, bBase int) {
	seg := 0
	for _, jd := range jobs {
		remaining := jd.work
		for remaining > 1e-15 && seg < len(segs) {
			s := &segs[seg]
			if jd.density <= s.density {
				break
			}
			take := remaining
			if take > s.cap {
				take = s.cap
			}
			out[jd.job] += take / jd.demand
			out[bBase+s.serverType] += take / s.speed
			s.cap -= take
			remaining -= take
			if s.cap <= 1e-15 {
				seg++
			}
		}
		if seg >= len(segs) {
			break
		}
	}
}

// repairWarm is repairWarmStart for the sparse path: it repairs the dense
// warm vector in place against the compact caps without materializing a
// dense hCap matrix. An inactive pair's cap is zero, so any mass there
// clamps away; the capacity-row sums skip inactive pairs, whose terms are
// exact zeros, and therefore match the dense sums float-for-float. The
// outcome classification is identical to repairWarmStart on the dense
// coefficients. Auxiliary rows are absent by construction: clusters with
// auxiliary resources take the dense path.
func (sp *sparseSlot) repairWarm(st *model.State, x []float64) warmOutcome {
	c := sp.c
	n, nJ := c.N(), c.J()
	repaired := false
	for i := 0; i < n; i++ {
		base := i * nJ
		for j := 0; j < nJ; j++ {
			idx := base + j
			v := x[idx]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return warmFallback
			}
			if sp.active[idx] {
				continue // clamped against the compact cap below
			}
			w := v
			if w < 0 {
				w = 0
			}
			if w > 0 {
				w = 0 // cap is 0 off the active index
			}
			if w != v {
				x[idx] = w
				repaired = true
			}
		}
		for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
			idx := sp.denseIdx[t]
			v := x[idx]
			w := v
			if w < 0 {
				w = 0
			}
			if cap := sp.hCap[t]; w > cap {
				w = cap
			}
			if w != v {
				x[idx] = w
				repaired = true
			}
		}
		for k := 0; k < c.K(i); k++ {
			idx := sp.l.bOff[i] + k
			v := x[idx]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return warmFallback
			}
			w := v
			if w < 0 {
				w = 0
			}
			if avail := st.Avail[i][k]; w > avail {
				w = avail
			}
			if w != v {
				x[idx] = w
				repaired = true
			}
		}

		// Capacity row (eq. 11) over active pairs; inactive pairs are exact
		// zeros after the clamp above.
		work := 0.0
		for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
			work += sp.demand[t] * x[sp.denseIdx[t]]
		}
		capWork := 0.0
		for k, stype := range c.DataCenters[i].Servers {
			capWork += stype.Speed * x[sp.l.bOff[i]+k]
		}
		if work > capWork*(1+warmFeasEps) {
			if capWork < warmCollapseScale*work {
				return warmFallback
			}
			scale := capWork / work
			for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
				x[sp.denseIdx[t]] *= scale
			}
			repaired = true
		}
	}
	if repaired {
		return warmRepaired
	}
	return warmHit
}

// gather copies the dense (h, b) vector x into the compact vector out.
func (sp *sparseSlot) gather(x, out []float64) {
	for t := 0; t < sp.nH; t++ {
		out[t] = x[sp.denseIdx[t]]
	}
	for i := 0; i < sp.c.N(); i++ {
		copy(out[sp.bOffC[i]:sp.bOffC[i]+sp.c.K(i)], x[sp.l.bOff[i]:sp.l.bOff[i]+sp.c.K(i)])
	}
}

// scatterWarm writes the compact iterate x back into the dense warm buffer,
// zeroing the h block first: the dense path keeps exact zeros on inactive
// pairs, so zero-then-scatter reproduces its buffer exactly.
func (sp *sparseSlot) scatterWarm(x, warm []float64) {
	for idx := 0; idx < sp.c.N()*sp.c.J(); idx++ {
		warm[idx] = 0
	}
	for t := 0; t < sp.nH; t++ {
		warm[sp.denseIdx[t]] = x[t]
	}
	for i := 0; i < sp.c.N(); i++ {
		copy(warm[sp.l.bOff[i]:sp.l.bOff[i]+sp.c.K(i)], x[sp.bOffC[i]:sp.bOffC[i]+sp.c.K(i)])
	}
}

// decideProcessingSparse is decideProcessing on the sparse representation:
// refresh the active-pair index incrementally, solve on the compact layout
// (greedy for linear slots, compact Frank-Wolfe otherwise), scatter the
// clamped h into the action, and provision exactly as the dense path does.
func (g *GreFar) decideProcessingSparse(st *model.State, q queue.Lengths, act *model.Action, stats *telemetry.SolveStats) error {
	c, ws := g.cluster, g.ws
	sp := ws.sparse
	var warmRef []float64
	if g.cfg.WarmStart && ws.warmValid {
		warmRef = ws.warm
	}
	sp.refresh(g.cfg, st, q, warmRef)

	var err error
	if g.linearSlot() {
		err = g.solveSparseLinear(st, act, stats)
	} else {
		err = g.solveSparseQuadratic(st, act, stats)
	}
	if err != nil {
		return err
	}

	for i := 0; i < c.N(); i++ {
		if _, err := model.ProvisionOrdered(c.DataCenters[i], ws.provOrder[i], st.Avail[i], act.Busy[i], act.WorkAt(c, i)); err != nil {
			return fmt.Errorf("data center %d: %w", i, err)
		}
	}
	return nil
}

// solveSparseLinear is the beta = 0 slot solve on the compact layout: the
// per-site greedy exchange over active pairs, site by site. Like the dense
// greedy path it attaches no solver options to telemetry.
func (g *GreFar) solveSparseLinear(st *model.State, act *model.Action, stats *telemetry.SolveStats) error {
	sp := g.ws.sparse
	sp.vertex = resizeFloats(sp.vertex, sp.total)
	for j := range sp.vertex {
		sp.vertex[j] = 0
	}
	for i := 0; i < g.cluster.N(); i++ {
		if err := sp.greedySite(st, i, sp.linear, sp.vertex, false); err != nil {
			return err
		}
		for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
			act.Process[i][sp.pairJ[t]] = sp.vertex[t]
		}
	}
	if stats != nil {
		*stats = telemetry.SolveStats{Solver: telemetry.SolverGreedy, Iterations: 1, Converged: true}
	}
	return nil
}

// solveSparseQuadratic is solveQuadraticSlot on the compact layout: same
// Frank-Wolfe machinery, same warm-start protocol against the canonical
// dense warm buffer, bit-identical iterates (see the file comment).
func (g *GreFar) solveSparseQuadratic(st *model.State, act *model.Action, stats *telemetry.SolveStats) error {
	c, ws := g.cluster, g.ws
	sp := ws.sparse
	sp.ensureObjective(g.cfg, st.TotalResource(c))
	oracle := sp.oracle(st)

	opts := g.cfg.FW
	if opts.MaxIters <= 0 {
		opts.MaxIters = 150
	}

	sp.x0 = resizeFloats(sp.x0, sp.total)
	start := sp.x0
	warm := ""
	if g.cfg.WarmStart {
		outcome := warmFallback
		if ws.warmValid {
			outcome = sp.repairWarm(st, ws.warm)
		}
		switch outcome {
		case warmHit:
			warm = telemetry.WarmHit
			g.warmHits++
		case warmRepaired:
			warm = telemetry.WarmRepaired
			g.warmRepairs++
		default:
			warm = telemetry.WarmFallback
			g.warmFallbacks++
		}
		if outcome != warmFallback {
			sp.xw = resizeFloats(sp.xw, sp.total)
			sp.gather(ws.warm, sp.xw)
			start = sp.xw
		}
	}
	if len(start) > 0 && &start[0] == &sp.x0[0] {
		for j := range sp.x0 {
			sp.x0[j] = 0
		}
	}
	res, err := solve.FrankWolfeWS(&ws.fw, sp.wrapped, oracle, start, opts)
	if err != nil {
		return fmt.Errorf("frank-wolfe: %w", err)
	}
	if g.cfg.WarmStart {
		sp.scatterWarm(res.X, ws.warm)
		ws.warmValid = true
	}
	if stats != nil {
		*stats = telemetry.SolveStats{
			Solver:     telemetry.SolverFrankWolfe,
			Iterations: res.Iters,
			Converged:  res.Converged,
			Residual:   res.Gap,
		}
		if res.Variant != solve.VariantVanilla {
			stats.Variant = res.Variant
		}
		g.attachWarmStats(stats, warm)
		g.attachSolverOptions(stats, opts)
	}
	sp.clampProcess(res.X, act)
	return nil
}

// clampProcess scatters the compact iterate's h block into the action,
// clamped into [0, hCap] exactly as the dense path clamps its result.
func (sp *sparseSlot) clampProcess(x []float64, act *model.Action) {
	for i := 0; i < sp.c.N(); i++ {
		for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
			h := x[t]
			if h < 0 {
				h = 0
			}
			if cap := sp.hCap[t]; h > cap {
				h = cap
			}
			act.Process[i][sp.pairJ[t]] = h
		}
	}
}

// attachWarmStats fills the warm-start telemetry fields when warm starts are
// configured.
func (g *GreFar) attachWarmStats(stats *telemetry.SolveStats, warm string) {
	if !g.cfg.WarmStart {
		return
	}
	stats.Warm = warm
	stats.WarmHits = g.warmHits
	stats.WarmRepairs = g.warmRepairs
	stats.WarmFallbacks = g.warmFallbacks
}

// attachSolverOptions attaches the effective solver options to the first
// telemetry event of a non-default-configured scheduler.
func (g *GreFar) attachSolverOptions(stats *telemetry.SolveStats, opts solve.FWOptions) {
	if !g.reportOpts || g.optsReported {
		return
	}
	stats.Options = &telemetry.SolverOptions{
		MaxIters:  opts.MaxIters,
		Tol:       opts.Tol,
		AwaySteps: opts.AwaySteps,
		WarmStart: g.cfg.WarmStart,
	}
	g.optsReported = true
}

// resizeFloats returns s with length n, reusing capacity; contents are
// unspecified and must be overwritten by the caller.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// resizeInts is resizeFloats for int slices.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

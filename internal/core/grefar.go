package core

import (
	"fmt"

	"grefar/internal/fairness"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/sched"
	"grefar/internal/solve"
	"grefar/internal/tariff"
	"grefar/internal/telemetry"
)

// Config carries GreFar's two control knobs (paper section IV-B).
type Config struct {
	// V >= 0 is the cost-delay parameter: larger V weighs the
	// energy-fairness cost more heavily against queue drift, reducing cost
	// at the expense of O(V) queue backlog (Theorem 1).
	V float64
	// Beta >= 0 is the energy-fairness parameter: 0 ignores fairness
	// entirely; large values prioritize fairness over energy cost.
	Beta float64
	// Fairness selects the fairness function whose penalty enters the slot
	// objective (paper footnote 5 allows any). Nil selects the paper's
	// quadratic deviation function (eq. 3) with the cluster's account
	// weights.
	Fairness FairnessTerm
	// Tariff maps each site's energy draw to cost (paper section III-A2
	// allows increasing convex functions). Nil selects the paper's baseline
	// linear pricing cost = phi * energy, for which the closed-form greedy
	// slot solver applies.
	Tariff tariff.Tariff
	// FW tunes the Frank-Wolfe solver used when Beta > 0. Zero values select
	// defaults; invalid values (negative MaxIters, NaN or negative Tol) are
	// rejected at New with ErrBadConfig.
	FW solve.FWOptions
	// WarmStart seeds each slot's convex solve (Beta > 0) with the previous
	// slot's iterate, repaired against the current slot's availability caps,
	// instead of cold-starting from zero. Consecutive slot problems differ
	// only by backlogs, prices, and availability, so the previous optimum is
	// usually a few iterations from the new one. Off by default: results are
	// equal within the solver tolerance but not bit-identical, and golden
	// traces pin the cold-start behavior.
	WarmStart bool
	// Routing selects how routing ties are broken (sites with equal local
	// backlog have identical coefficients in (14), so the minimizer is not
	// unique). The default SplitTies emulates the uncapped paper algorithm,
	// which routes r_max to every tied site; FirstSiteWins is the naive
	// alternative kept for the DESIGN.md ablation.
	Routing RoutingRule
	// Observer, when non-nil, receives one telemetry.SlotEvent per Decide
	// call (origin "decide") carrying the backlog snapshot, the drift and
	// V*g(t) penalty decomposition of the chosen action, and solver
	// statistics. Nil costs nothing on the decision path.
	Observer telemetry.SlotObserver
}

// ApplyScheduler replaces the whole configuration with c, making a Config
// literal usable wherever a scheduler option is accepted. This is the
// compatibility bridge for the pre-options construction style
// (grefar.New(cluster, grefar.Config{...})): a Config used as an option
// resets every knob, so combine it with finer-grained options only before
// them, not after.
//
// Deprecated: pass functional options (WithV, WithBeta, WithTariff, ...)
// instead of a positional Config literal; the struct form remains supported
// but new knobs will only get option constructors.
func (c Config) ApplyScheduler(dst *Config) { *dst = c }

// RoutingRule selects the tie-breaking behavior of the routing step.
type RoutingRule int

const (
	// SplitTies divides the available jobs evenly across sites whose
	// backlogs tie (the default, matching the uncapped paper algorithm).
	SplitTies RoutingRule = iota
	// FirstSiteWins gives the whole remaining budget to the lowest-index
	// site of a tie group. At small V this hides expensive sites by
	// accident of ordering; the ablation quantifies the distortion.
	FirstSiteWins
)

// GreFar is the paper's online scheduling algorithm. It implements
// sched.Scheduler using only per-slot observable information: no statistics
// of arrivals, prices, or availability are ever used.
type GreFar struct {
	cluster *model.Cluster
	cfg     Config
	weights []float64 // account target shares gamma_m

	// ws is the per-scheduler solver workspace. Its single-owner rule makes
	// Decide NOT safe for concurrent calls on one GreFar instance; parallel
	// sweeps must construct one scheduler per run (see decideScratch).
	ws *decideScratch

	// Warm-start outcome counters, cumulative over the scheduler's lifetime
	// and surfaced in every SolveStats when WarmStart is on.
	warmHits, warmRepairs, warmFallbacks int

	// reportOpts marks a scheduler whose solver options depart from the
	// defaults; the effective options are then attached to its first
	// telemetry event (optsReported latches). Default-configured schedulers
	// never attach them, keeping their event streams byte-identical to
	// pre-option traces.
	reportOpts   bool
	optsReported bool
}

var _ sched.Scheduler = (*GreFar)(nil)

// New builds a GreFar scheduler for the cluster. A malformed cluster yields
// an error wrapping model.ErrInvalidCluster; a bad knob yields one wrapping
// ErrBadConfig.
//
// The slot solver is chosen from the input: the active-pair sparse
// representation whenever it applies (no auxiliary resources and a linear
// or absent tariff), the dense coefficient path otherwise. The two produce
// bit-identical decisions where both apply.
func New(c *model.Cluster, cfg Config) (*GreFar, error) {
	return newGreFar(c, cfg, true)
}

// newDense builds a scheduler pinned to the dense coefficient path, the
// reference the sparse path is tested against.
func newDense(c *model.Cluster, cfg Config) (*GreFar, error) {
	return newGreFar(c, cfg, false)
}

// newGreFar validates the inputs and builds the scheduler, on the sparse
// path when sparse is set and the input allows it.
func newGreFar(c *model.Cluster, cfg Config, sparse bool) (*GreFar, error) {
	if c == nil {
		return nil, fmt.Errorf("%w: nil cluster", model.ErrInvalidCluster)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if cfg.V < 0 {
		return nil, fmt.Errorf("%w: cost-delay parameter V = %v is negative", ErrBadConfig, cfg.V)
	}
	if cfg.Beta < 0 {
		return nil, fmt.Errorf("%w: energy-fairness parameter beta = %v is negative", ErrBadConfig, cfg.Beta)
	}
	if err := cfg.FW.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	weights := make([]float64, c.M())
	for m, a := range c.Accounts {
		weights[m] = a.Weight
	}
	if cfg.Fairness == nil {
		quad, err := fairness.NewQuadratic(weights)
		if err != nil {
			return nil, err
		}
		cfg.Fairness = quad
	}
	g := &GreFar{cluster: c, cfg: cfg, weights: weights}
	g.ws = newDecideScratch(c, !g.linearSlot(), sparse && sparseApplies(c, cfg.Tariff))
	g.reportOpts = cfg.FW != (solve.FWOptions{}) || cfg.WarmStart
	return g, nil
}

// sparseApplies reports whether the active-pair sparse representation can
// serve the cluster: its compact greedy and warm-start repair handle the
// single capacity row of (11) and a cost linear in the busy-server counts,
// so auxiliary resources (footnote 3) and non-linear tariffs need the dense
// path.
func sparseApplies(c *model.Cluster, trf tariff.Tariff) bool {
	return c.Aux() == 0 && isLinearTariff(trf)
}

// isLinearTariff reports whether trf is absent or the paper's linear pricing.
func isLinearTariff(trf tariff.Tariff) bool {
	if trf == nil {
		return true
	}
	_, linear := trf.(tariff.Linear)
	return linear
}

// Name implements sched.Scheduler.
func (g *GreFar) Name() string {
	return fmt.Sprintf("grefar(V=%g,beta=%g)", g.cfg.V, g.cfg.Beta)
}

// Decide implements sched.Scheduler: it minimizes the drift-plus-penalty
// expression (14) for slot t.
func (g *GreFar) Decide(t int, st *model.State, q queue.Lengths) (*model.Action, error) {
	act := model.NewAction(g.cluster)
	g.decideRouting(q, act)
	var stats *telemetry.SolveStats
	if g.cfg.Observer != nil {
		stats = &telemetry.SolveStats{}
	}
	if err := g.decideProcessing(st, q, act, stats); err != nil {
		return nil, err
	}
	if g.cfg.Observer != nil {
		ev := g.slotEvent(t, st, q, act, stats)
		if telemetry.WantsDetail(g.cfg.Observer) {
			ev.Detail = &telemetry.SlotDetail{
				State:  st.Clone(),
				Action: act.Clone(),
				Pre:    q.Clone(),
			}
		}
		g.cfg.Observer.ObserveSlot(ev)
	}
	return act, nil
}

// slotEvent assembles the origin-"decide" telemetry event for the chosen
// action: the pre-decision backlog snapshot, the drift and penalty
// components whose sum is the drift-plus-penalty value (14) the decision
// minimizes, and the solver statistics collected by decideProcessing.
func (g *GreFar) slotEvent(t int, st *model.State, q queue.Lengths, act *model.Action, stats *telemetry.SolveStats) telemetry.SlotEvent {
	c := g.cluster
	ev := telemetry.SlotEvent{
		Slot:      t,
		Origin:    telemetry.OriginDecide,
		Scheduler: g.Name(),
		// A scheduler sees the whole cluster, not one site.
		DataCenter: -1,
		Solve:      stats,
	}
	for _, v := range q.Central {
		ev.CentralBacklog += v
	}
	ev.LocalBacklog = make([]float64, c.N())
	for i := range q.Local {
		for _, v := range q.Local[i] {
			ev.LocalBacklog[i] += v
		}
	}
	ev.TotalBacklog = ev.CentralBacklog
	for _, v := range ev.LocalBacklog {
		ev.TotalBacklog += v
	}

	// Penalty = V*g(t) where g = billed energy + beta*P(alloc, total); the
	// fairness term's P equals -f, so this matches eq. 6.
	ev.Energy = act.BilledCost(c, st, g.cfg.Tariff)
	fairPenalty := 0.0
	if g.cfg.Beta != 0 {
		p := g.cfg.Fairness.Penalty(act.AccountWork(c), st.TotalResource(c))
		fairPenalty = g.cfg.Beta * p
		ev.Fairness = -p
	}
	ev.Penalty = g.cfg.V * (ev.Energy + fairPenalty)

	// Drift: the routing and processing queue terms of (14).
	for j := 0; j < c.J(); j++ {
		for _, i := range c.JobTypes[j].Eligible {
			r := float64(act.Route[i][j])
			ev.Drift += q.Local[i][j]*(r-act.Process[i][j]) - q.Central[j]*r
		}
	}
	ev.Objective = ev.Drift + ev.Penalty
	return ev
}

// decideRouting solves the routing part of (14). The routing terms are
//
//	sum_j sum_{i in D_j} (q_{i,j} - Q_j) * r_{i,j},
//
// linear and separable, so the paper's minimizer routes r_max to every
// eligible site whose local backlog is below the central backlog. Because
// this simulator moves real jobs, the total routed per type is additionally
// capped at the central queue content, spent on the most-negative
// coefficients (the least-backlogged sites) first.
func (g *GreFar) decideRouting(q queue.Lengths, act *model.Action) {
	c := g.cluster
	for j := 0; j < c.J(); j++ {
		jt := c.JobTypes[j]
		qj := q.Central[j]
		available := int(qj)
		if available <= 0 {
			continue
		}
		// Eligible sites with negative routing coefficient, most negative
		// (smallest local backlog) first.
		order := g.ws.order[:0]
		for _, i := range jt.Eligible {
			if q.Local[i][j] < qj {
				order = append(order, i)
			}
		}
		// Insertion sort by (backlog, site index): the site list is a handful
		// of entries and this runs once per job type per slot, where
		// sort.Slice's reflection-based swapping dominated the routing
		// profile. The comparator is a strict total order (index tie-break),
		// so the result is identical to any correct sort.
		for a := 1; a < len(order); a++ {
			for b := a; b > 0; b-- {
				qa, qb := q.Local[order[b]][j], q.Local[order[b-1]][j]
				if qa > qb || (qa == qb && order[b] > order[b-1]) {
					break
				}
				order[b], order[b-1] = order[b-1], order[b]
			}
		}
		// Fill strictly better (smaller-backlog) sites first; sites whose
		// backlogs tie have identical coefficients in (14), and the
		// uncapped paper algorithm routes r_max to each of them, so the
		// capped emulation splits the remaining jobs evenly across the tie
		// group instead of privileging the lowest index.
		budget := routeBudgetFor(jt)
		for a := 0; a < len(order) && available > 0; {
			b := a + 1
			for b < len(order) && q.Local[order[b]][j] == q.Local[order[a]][j] {
				b++
			}
			group := order[a:b]
			if g.cfg.Routing == FirstSiteWins {
				group = group[:1]
			}
			for g, remaining := 0, available; g < len(group); g++ {
				share := remaining / len(group)
				if g < remaining%len(group) {
					share++
				}
				if share > budget {
					share = budget
				}
				act.Route[group[g]][j] = share
				available -= share
			}
			a = b
		}
	}
}

func routeBudgetFor(jt model.JobType) int {
	if jt.MaxRoute > 0 {
		return jt.MaxRoute
	}
	return 1 << 30
}

// decideProcessing solves the processing part of (14):
//
//	minimize  V*e(t) + V*beta * sum_m (r_m/R - gamma_m)^2 - sum_{i,j} q_{i,j} h_{i,j}
//
// over the capacity polytope (11). With beta = 0 the problem is linear and
// the greedy exchange solves it exactly, realizing the paper's threshold
// rule: process type j at site i only while q_{i,j}/d_j > V * phi_i * p_k/s_k.
// With beta > 0 it is a convex QP solved by Frank-Wolfe with the greedy as
// its linear oracle and exact line search.
//
// The sparse representation runs whenever it applies; the dense path below
// serves clusters with auxiliary resources or a non-linear tariff, and is
// the reference the sparse path is tested against.
func (g *GreFar) decideProcessing(st *model.State, q queue.Lengths, act *model.Action, stats *telemetry.SolveStats) error {
	if g.ws.sparse != nil {
		return g.decideProcessingSparse(st, q, act, stats)
	}
	c := g.cluster
	ws := g.ws

	// Linear coefficients and per-pair processing caps shared by all paths,
	// rebuilt in the scheduler's workspace each slot.
	slotCoefficientsInto(c, g.cfg, st, q, ws.cH, ws.cB, ws.hCap)
	cH, cB, hCap := ws.cH, ws.cB, ws.hCap

	var process [][]float64
	switch {
	case g.linearSlot() && c.Aux() == 0:
		la, err := solveLinearSlotWS(&ws.lin, c, st, cH, cB, hCap)
		if err != nil {
			return err
		}
		process = la.process
		if stats != nil {
			*stats = telemetry.SolveStats{Solver: telemetry.SolverGreedy, Iterations: 1, Converged: true}
		}
	case g.linearSlot():
		// Auxiliary resource constraints (footnote 3) break the
		// single-constraint greedy; the simplex solves the linear slot
		// problem exactly.
		p, _, _, err := solveSlotLPGeneral(c, st, cH, cB, hCap)
		if err != nil {
			return err
		}
		process = p
		if stats != nil {
			*stats = telemetry.SolveStats{Solver: telemetry.SolverLP, Iterations: 1, Converged: true}
		}
	default:
		var err error
		process, err = g.solveQuadraticSlot(st, cH, cB, hCap, stats)
		if err != nil {
			return err
		}
	}

	// Provision the cheapest busy-server mix for the chosen work; this is
	// optimal given h because b enters the objective linearly with
	// non-negative cost. The cheapest-first server order is cluster-static,
	// so the precomputed ws.provOrder avoids re-sorting every slot.
	for i := 0; i < c.N(); i++ {
		copy(act.Process[i], process[i])
		if _, err := model.ProvisionOrdered(c.DataCenters[i], ws.provOrder[i], st.Avail[i], act.Busy[i], act.WorkAt(c, i)); err != nil {
			return fmt.Errorf("data center %d: %w", i, err)
		}
	}
	return nil
}

func processBudgetFor(jt model.JobType, queued float64) float64 {
	b := queued
	if jt.MaxProcess > 0 && jt.MaxProcess < b {
		b = jt.MaxProcess
	}
	return b
}

// linearSlot reports whether the slot problem is linear, i.e. exactly
// solvable by the greedy exchange: no fairness term in play and a linear
// (or absent) tariff.
func (g *GreFar) linearSlot() bool {
	if g.cfg.V == 0 {
		return true // cost is irrelevant; greedy processes everything queued
	}
	return g.cfg.Beta == 0 && isLinearTariff(g.cfg.Tariff)
}

// solveQuadraticSlot handles beta > 0 by Frank-Wolfe over the concatenated
// (h, b) variables. The fairness penalty V*beta*P(alloc(h)) couples job
// types of the same account across sites; everything else is linear. With
// the paper's quadratic fairness the program is a QP solved with exact line
// search; other convex penalties (alpha-fair) use diminishing steps.
func (g *GreFar) solveQuadraticSlot(st *model.State, cH, cB, hCap [][]float64, stats *telemetry.SolveStats) ([][]float64, error) {
	c := g.cluster
	ws := g.ws
	l := ws.layout

	// Non-linear tariffs move the energy cost out of the linear part and
	// into the convex tariff term.
	nonlinearTariff := !isLinearTariff(g.cfg.Tariff)
	linear := ws.linear
	for i := 0; i < c.N(); i++ {
		for j := 0; j < c.J(); j++ {
			linear[l.hIndex(i, j)] = cH[i][j]
		}
		for k := 0; k < c.K(i); k++ {
			if nonlinearTariff {
				linear[l.bOff[i]+k] = 0
			} else {
				linear[l.bOff[i]+k] = cB[i][k]
			}
		}
	}
	// The objective's structural maps (per-variable account, demand, power)
	// depend only on the cluster and configuration, so the objective is built
	// once and refreshed with the slot's prices and resource total thereafter.
	if ws.obj == nil {
		ws.obj = newSlotObjective(c, linear, g.cfg.V*g.cfg.Beta, st.TotalResource(c), g.cfg.Fairness)
		if nonlinearTariff {
			ws.obj.attachTariff(c, st, g.cfg.Tariff, g.cfg.V)
		}
		ws.wrapped = wrapSlotObjective(ws.obj)
	} else {
		ws.obj.total = st.TotalResource(c)
		if nonlinearTariff {
			ws.obj.refreshTariff(c, st)
		}
	}

	oracle := slotOracleWS(c, st, hCap, ws.gradH, ws.gradB, &ws.lin)

	opts := g.cfg.FW
	if opts.MaxIters <= 0 {
		opts.MaxIters = 150
	}

	// Starting point: the previous slot's iterate when warm-starting is on
	// and the iterate survives repair against this slot's caps, the zero
	// vector otherwise. The repair mutates ws.warm in place; on fallback the
	// half-repaired buffer is simply not used (and is overwritten by this
	// slot's result below).
	start := ws.x0
	warm := ""
	if g.cfg.WarmStart {
		outcome := warmFallback
		if ws.warmValid {
			outcome = repairWarmStart(c, st, hCap, l, ws.warm)
		}
		switch outcome {
		case warmHit:
			start = ws.warm
			warm = telemetry.WarmHit
			g.warmHits++
		case warmRepaired:
			start = ws.warm
			warm = telemetry.WarmRepaired
			g.warmRepairs++
		default:
			warm = telemetry.WarmFallback
			g.warmFallbacks++
		}
	}
	if &start[0] == &ws.x0[0] {
		for j := range ws.x0 {
			ws.x0[j] = 0
		}
	}
	res, err := solve.FrankWolfeWS(&ws.fw, ws.wrapped, oracle, start, opts)
	if err != nil {
		return nil, fmt.Errorf("frank-wolfe: %w", err)
	}
	if g.cfg.WarmStart {
		copy(ws.warm, res.X)
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

	process := ws.process
	for i := range process {
		for j := 0; j < c.J(); j++ {
			h := res.X[l.hIndex(i, j)]
			if h < 0 {
				h = 0
			}
			if h > hCap[i][j] {
				h = hCap[i][j]
			}
			process[i][j] = h
		}
	}
	return process, nil
}

// Package controller implements the central scheduler of the distributed
// GreFar deployment. Each slot it polls every data-center agent for its
// state report, assembles the global view x(t) and the queue backlogs
// Theta(t), runs any sched.Scheduler (normally GreFar), and pushes the
// per-site allocation decisions back to the agents. The controller owns only
// the central queues Q_j; the local queues q_{i,j} live on the agents.
//
// The control loop is partitioned: P controller partitions, each owning a
// disjoint contiguous range of the data centers, run gather -> decide ->
// scatter concurrently against a shared versioned board of the central
// queues with optimistic commit. A partition's commit is rejected — and its
// decision retried against a fresh snapshot — when a conflicting commit
// advanced a central-queue row it claims jobs from, the conflict-aware
// request distribution of Arktos-style scale-out schedulers. The single
// controller of the paper is the one-partition case (New): one partition
// owns every site, nothing can conflict, and the merged action is its own.
//
// Every partition drives the same Tracker (the Healthy/Suspect/Dead/
// Rejoining machine and shadow ledgers per owned agent); gather and scatter
// ride transport.MuxClient with calls batched per connection, and fall back
// to concurrent per-agent calls on any other connection.
//
// Deterministic mode (Config.Deterministic) makes every partition decide
// from the slot-initial snapshot with commit validation disabled: because
// each partition runs an identically-configured deterministic scheduler on
// identical inputs, the merged action equals the one-partition action and
// the whole trajectory is byte-identical to it, healthy or degraded.
package controller

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"grefar/internal/fairness"
	"grefar/internal/metrics"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/sched"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
	"grefar/internal/workload"
)

// AgentConn abstracts the RPC connection to one agent, enabling in-process
// fakes in tests.
type AgentConn interface {
	Call(kind string, reqBody, respBody any) error
}

// ContextAgentConn is an AgentConn whose calls honor a context — retrying
// connections (transport.ReconnectClient) abort their backoff loop when the
// control loop is canceled, so SIGINT does not wait out reconnection delays
// to an unreachable agent. Connections without context support degrade to
// plain Call.
type ContextAgentConn interface {
	AgentConn
	CallContext(ctx context.Context, kind string, reqBody, respBody any) error
}

var (
	_ AgentConn        = (*transport.Client)(nil)
	_ ContextAgentConn = (*transport.ReconnectClient)(nil)
)

// callAgent routes a call through CallContext when both a context and a
// context-aware connection are available.
func callAgent(ctx context.Context, a AgentConn, kind string, reqBody, respBody any) error {
	if ctx != nil {
		if ca, ok := a.(ContextAgentConn); ok {
			return ca.CallContext(ctx, kind, reqBody, respBody)
		}
	}
	return a.Call(kind, reqBody, respBody)
}

// Config tunes a Controller. Partitions and NewScheduler are required.
type Config struct {
	// Partitions is the number of controller partitions; the data centers are
	// split into that many contiguous, near-equal ownership ranges.
	Partitions int
	// Deterministic disables optimistic concurrency: every partition decides
	// from the slot-initial snapshot and commits without validation, which
	// reproduces the one-partition trajectory byte-identically.
	Deterministic bool
	// NewScheduler builds one scheduler per partition. Schedulers are
	// stateful, so each partition needs its own instance; for deterministic
	// mode they must be identically configured.
	NewScheduler func() (sched.Scheduler, error)
	// Policy, SuspectAfter, DeadAfter configure the health tracker (see
	// HealthConfig).
	Policy       FailurePolicy
	SuspectAfter int
	DeadAfter    int
	// MaxRetries bounds a partition's conflict-retry loop per slot; after
	// that many rejections it commits unvalidated (counted in Stats.Forced).
	// Default: Partitions — by then every conflicting peer has committed.
	MaxRetries int
	// Observer receives one SlotEvent per slot (origin "controller").
	Observer telemetry.SlotObserver
	// Registry, when set, publishes the tracker's health families plus the
	// per-partition commit telemetry (conflicts, retries, commits, commit
	// latency).
	Registry *telemetry.Registry
}

// Option customizes the Config New builds.
type Option func(*Config)

// WithObserver attaches a telemetry observer: the controller emits one
// SlotEvent per slot (origin "controller") from its run loop, carrying the
// realized energy, fairness, flows, and the central backlog it owns.
func WithObserver(obs telemetry.SlotObserver) Option {
	return func(cfg *Config) { cfg.Observer = obs }
}

// Controller drives the distributed control loop.
type Controller struct {
	cluster *model.Cluster
	conns   []AgentConn // index i is data center i
	cfg     Config
	fair    fairness.Function
	detail  bool // cfg.Observer asked for SlotEvent.Detail
	tracker *Tracker
	board   *board
	parts   []*partition
}

// partition is one controller partition: its contiguous ownership range, its
// scheduler instance, and its commit telemetry.
type partition struct {
	id    int
	owned []int // global data-center ids, ascending
	sch   sched.Scheduler

	conflicts atomic.Int64
	retries   atomic.Int64
	commits   atomic.Int64
	forced    atomic.Int64

	// Registry series (nil without a registry).
	conflictsM, retriesM, commitsM *telemetry.Counter
	latencyM                       *telemetry.Histogram
}

// PartitionStats is one partition's commit-protocol counters.
type PartitionStats struct {
	Partition int
	Owned     int
	Conflicts int64 // commits rejected on a version mismatch
	Retries   int64 // re-decide rounds after a rejection
	Commits   int64 // successful commits (slots decided)
	Forced    int64 // commits applied unvalidated after MaxRetries rejections
}

// New builds the one-partition controller around sch. agents[i] must be
// connected to the agent serving data center i.
func New(c *model.Cluster, sch sched.Scheduler, agents []AgentConn, opts ...Option) (*Controller, error) {
	if sch == nil {
		return nil, fmt.Errorf("nil scheduler")
	}
	cfg := Config{Partitions: 1, NewScheduler: func() (sched.Scheduler, error) { return sch, nil }}
	for _, opt := range opts {
		opt(&cfg)
	}
	return NewPartitioned(c, agents, cfg)
}

// NewPartitioned builds a controller with cfg.Partitions partitions over the
// given agent connections; conns[i] must serve data center i.
func NewPartitioned(c *model.Cluster, conns []AgentConn, cfg Config) (*Controller, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(conns) != c.N() {
		return nil, fmt.Errorf("got %d agent conns, cluster has %d data centers", len(conns), c.N())
	}
	if cfg.Partitions < 1 || cfg.Partitions > c.N() {
		return nil, fmt.Errorf("partitions %d outside [1,%d]", cfg.Partitions, c.N())
	}
	if cfg.NewScheduler == nil {
		return nil, fmt.Errorf("nil scheduler factory")
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = cfg.Partitions
	}
	weights := make([]float64, c.M())
	for m, a := range c.Accounts {
		weights[m] = a.Weight
	}
	fair, err := fairness.NewQuadratic(weights)
	if err != nil {
		return nil, err
	}
	ct := &Controller{
		cluster: c,
		conns:   conns,
		cfg:     cfg,
		fair:    fair,
		detail:  telemetry.WantsDetail(cfg.Observer),
		board:   newBoard(c.J()),
		tracker: NewTracker(c, conns, HealthConfig{
			Policy:       cfg.Policy,
			SuspectAfter: cfg.SuspectAfter,
			DeadAfter:    cfg.DeadAfter,
		}, cfg.Registry),
	}
	var conflicts, retries, commits *telemetry.CounterVec
	var latency *telemetry.HistogramVec
	if reg := cfg.Registry; reg != nil {
		conflicts = reg.Counter("grefar_controlplane_commit_conflicts_total",
			"Optimistic commits rejected because a conflicting commit advanced a claimed central-queue row.", "partition")
		retries = reg.Counter("grefar_controlplane_commit_retries_total",
			"Re-decide rounds run after a rejected commit.", "partition")
		commits = reg.Counter("grefar_controlplane_commits_total",
			"Successful partition commits (one per partition per applied slot).", "partition")
		latency = reg.Histogram("grefar_controlplane_commit_seconds",
			"Wall-clock time from a partition's first snapshot to its accepted commit, retries included.",
			[]float64{.00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25}, "partition")
	}
	n, p := c.N(), cfg.Partitions
	for id := 0; id < p; id++ {
		lo, hi := id*n/p, (id+1)*n/p
		owned := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			owned = append(owned, i)
		}
		s, err := cfg.NewScheduler()
		if err != nil {
			return nil, fmt.Errorf("partition %d scheduler: %w", id, err)
		}
		if s == nil {
			return nil, fmt.Errorf("partition %d: scheduler factory returned nil", id)
		}
		part := &partition{id: id, owned: owned, sch: s}
		if cfg.Registry != nil {
			label := strconv.Itoa(id)
			part.conflictsM = conflicts.With(label)
			part.retriesM = retries.With(label)
			part.commitsM = commits.With(label)
			part.latencyM = latency.With(label)
		}
		ct.parts = append(ct.parts, part)
	}
	return ct, nil
}

// Partitions returns the number of controller partitions.
func (ct *Controller) Partitions() int { return len(ct.parts) }

// Owned returns partition p's data-center ids.
func (ct *Controller) Owned(p int) []int { return append([]int(nil), ct.parts[p].owned...) }

// Health returns the per-agent health states (index i is data center i).
func (ct *Controller) Health() []AgentHealth { return ct.tracker.Health() }

// CentralLens returns the central backlog per job type.
func (ct *Controller) CentralLens() []float64 { return ct.board.lensUnclaimed() }

// Stats returns each partition's commit-protocol counters.
func (ct *Controller) Stats() []PartitionStats {
	out := make([]PartitionStats, len(ct.parts))
	for i, p := range ct.parts {
		out[i] = PartitionStats{
			Partition: p.id,
			Owned:     len(p.owned),
			Conflicts: p.conflicts.Load(),
			Retries:   p.retries.Load(),
			Commits:   p.commits.Load(),
			Forced:    p.forced.Load(),
		}
	}
	return out
}

// Snapshot serializes the controller's central queue state so a restarted
// controller can resume exactly where the previous one stopped; pair it with
// agent.Agent.Snapshot for whole-system checkpoints.
func (ct *Controller) Snapshot() ([]byte, error) {
	return queue.SnapshotLedgers(ct.board.ledgers)
}

// Restore replaces the central queue state from a Snapshot of a controller
// for the same cluster.
func (ct *Controller) Restore(snapshot []byte) error {
	return queue.RestoreLedgers(ct.board.ledgers, snapshot)
}

// errAgentDead marks an agent excluded from the gather set because its
// health state is Dead; the slot opens with a probe for it instead.
var errAgentDead = errors.New("agent is dead; probing instead of gathering")

// joinAgentErrors aggregates per-agent failures into one error naming every
// failed agent, so a multi-agent outage is diagnosable from a single message.
func joinAgentErrors(phase string, errs []error) error {
	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("agent %d %s: %w", i, phase, err))
		}
	}
	return errors.Join(joined...)
}

// eachPartition runs fn for every partition concurrently and waits; a single
// partition runs inline.
func (ct *Controller) eachPartition(fn func(p *partition)) {
	if len(ct.parts) == 1 {
		fn(ct.parts[0])
		return
	}
	var wg sync.WaitGroup
	for _, p := range ct.parts {
		wg.Add(1)
		go func(p *partition) {
			defer wg.Done()
			fn(p)
		}(p)
	}
	wg.Wait()
}

// callMany issues one kind of RPC to every listed agent, writing results and
// errors at the agents' global indices: agents behind the same MuxClient
// share one batched frame; everything else (chaos-wrapped conns,
// reconnecting clients, in-process fakes) gets a concurrent per-agent call.
// req(i) builds the request; resp(i) returns the decode destination (may be
// nil to discard).
func (ct *Controller) callMany(ctx context.Context, agents []int, kind string,
	req func(i int) any, resp func(i int) any, errs []error) {
	var batches map[*transport.MuxClient][]int // client -> global agent ids
	var wg sync.WaitGroup
	for _, i := range agents {
		if mc, ok := ct.conns[i].(*transport.MuxConn); ok {
			if batches == nil {
				batches = make(map[*transport.MuxClient][]int)
			}
			batches[mc.Client()] = append(batches[mc.Client()], i)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ct.tracker.Call(ctx, i, kind, req(i), resp(i))
		}(i)
	}
	for cli, ids := range batches {
		wg.Add(1)
		go func(cli *transport.MuxClient, ids []int) {
			defer wg.Done()
			calls := make([]transport.BatchCall, len(ids))
			for k, i := range ids {
				calls[k] = transport.BatchCall{
					Target: ct.conns[i].(*transport.MuxConn).Target(),
					Kind:   kind,
					Req:    req(i),
					Resp:   resp(i),
				}
			}
			start := time.Now()
			err := cli.CallBatch(ctx, calls)
			rtt := time.Since(start)
			for k, i := range ids {
				ct.tracker.ObserveRTT(i, rtt)
				if err != nil {
					errs[i] = err
					continue
				}
				errs[i] = calls[k].Err
			}
		}(cli, ids)
	}
	wg.Wait()
}

// RunSlot executes one slot of the control loop: gather, decide, allocate,
// then admit the slot's new arrivals into the central queues. It returns the
// acks for metric aggregation along with the decided action and state.
func (ct *Controller) RunSlot(t int, arrivals []int) (*model.Action, *model.State, []transport.AllocateAck, error) {
	return ct.RunSlotContext(context.Background(), t, arrivals)
}

// RunSlotContext is RunSlot with cancellation threaded into the agent calls:
// connections implementing ContextAgentConn abort their retry loops as soon
// as ctx is done, so an interrupt does not wait out reconnection backoff.
//
// Slot structure: (1) each partition concurrently probes its Dead agents,
// gathers its owned agents' state reports, and resolves them into the health
// tracker; (2) the global state is assembled once from the reports and
// shadows; (3) each partition concurrently decides against a versioned
// snapshot of the central board and commits its claim optimistically,
// retrying on conflict; (4) the merged action's central pops execute once in
// data-center order and each partition scatters its owned allocations;
// (5) acks settle against the shadow ledgers and the slot's arrivals enter
// the central queues.
//
// Under FailurePolicy Strict, any agent failure aborts the slot with every
// per-agent error joined, and an allocate failure restores the central
// ledgers popped in (4). Under Degrade the slot always completes: failed or
// malformed-reporting agents are masked out of the decision (availability
// zero, price and local queues frozen at the shadow), arrivals still enter
// the central queues, Dead agents are heartbeat-probed and re-synced onto
// the shadow state when they answer, and the emitted slot evidence is
// derived from the shadow ledgers so the invariant checker passes on every
// applied slot — the masked state is a valid cluster instance.
func (ct *Controller) RunSlotContext(ctx context.Context, t int, arrivals []int) (*model.Action, *model.State, []transport.AllocateAck, error) {
	c := ct.cluster
	if len(arrivals) != c.J() {
		return nil, nil, nil, fmt.Errorf("got %d arrival counts, want %d", len(arrivals), c.J())
	}
	for j, a := range arrivals {
		if a < 0 {
			return nil, nil, nil, fmt.Errorf("negative arrivals for job type %d", j)
		}
	}
	degrade := ct.cfg.Policy == Degrade

	// Phase 1: per-partition probe + gather + resolve. Every write lands at
	// an owned agent's index, and ownership is disjoint, so the shared arrays
	// and tracker records never race. Each report's shape is validated on
	// receipt (site echo, slot echo, dimensions, finite non-negative values),
	// so a malformed report surfaces as a typed per-agent error — wrapping
	// transport.ErrMalformedReport — before it can corrupt the state.
	reports := make([]transport.StateReport, c.N())
	errs := make([]error, c.N())
	ok := make([]bool, c.N())
	ct.eachPartition(func(p *partition) {
		if degrade {
			ct.tracker.ProbeDead(ctx, t, p.owned)
		}
		live := make([]int, 0, len(p.owned))
		for _, i := range p.owned {
			if ct.tracker.State(i) == Dead {
				errs[i] = errAgentDead
				continue
			}
			live = append(live, i)
		}
		ct.callMany(ctx, live, transport.KindState,
			func(i int) any { return transport.StateRequest{Slot: t} },
			func(i int) any { return &reports[i] },
			errs)
		for _, i := range live {
			if errs[i] == nil {
				errs[i] = reports[i].Validate(i, t, c.K(i), c.J())
			}
		}
		if !degrade {
			return // strict resolution happens globally after the barrier
		}
		for _, i := range p.owned {
			if errs[i] != nil {
				ct.tracker.RecordFailure(i)
				continue
			}
			ok[i] = ct.tracker.ResolveReport(ctx, i, t, &reports[i])
		}
	})
	if !degrade {
		if err := joinAgentErrors("state", errs); err != nil {
			return nil, nil, nil, err
		}
		for i := range reports {
			ct.tracker.TrueUpShadow(i, t, &reports[i])
			ok[i] = true
		}
	}

	// Phase 2: assemble the global state: reported availability and price
	// for participating agents; masked agents contribute zero availability
	// (no routing, no processing there) and their last known price, with
	// local queues frozen at the shadow. Participating agents' shadow lengths
	// are bit-identical to their reports.
	st := model.NewState(c)
	pre := queue.Lengths{Central: ct.board.lensUnclaimed(), Local: make([][]float64, c.N())}
	var masked []int
	for i := 0; i < c.N(); i++ {
		if ok[i] {
			copy(st.Avail[i], reports[i].Avail)
			st.Price[i] = reports[i].Price
		} else {
			st.Price[i] = ct.tracker.LastPrice(i)
			masked = append(masked, i)
		}
		pre.Local[i] = ct.tracker.ShadowLens(i)
	}
	if err := st.Validate(c); err != nil {
		return nil, nil, nil, fmt.Errorf("slot %d: bad assembled state: %w", t, err)
	}
	if len(masked) > 0 {
		ct.tracker.NoteDegraded()
	}

	// Phase 3: decide + optimistic commit. Each partition decides
	// full-cluster (the schedulers are whole-problem solvers) but only its
	// owned rows enter the merged action; claims cover only owned-row routes,
	// so conflicts are exactly overlapping central-queue demands. A lone
	// partition has no peer to conflict with and decides like deterministic
	// mode.
	optimistic := !ct.cfg.Deterministic && len(ct.parts) > 1
	ct.board.resetClaims()
	acts := make([]*model.Action, len(ct.parts))
	partErrs := make([]error, len(ct.parts))
	ct.eachPartition(func(p *partition) {
		start := time.Now()
		var act *model.Action
		for attempt := 0; ; attempt++ {
			v := view{lens: pre.Central}
			if optimistic {
				v = ct.board.snapshot()
			}
			a, err := p.sch.Decide(t, st, queue.Lengths{Central: v.lens, Local: pre.Local})
			if err != nil {
				partErrs[p.id] = fmt.Errorf("partition %d: %s: %w", p.id, p.sch.Name(), err)
				return
			}
			if !optimistic {
				act = a
				break
			}
			want := make([]float64, c.J())
			for _, i := range p.owned {
				for j, r := range a.Route[i] {
					want[j] += float64(r)
				}
			}
			if attempt >= ct.cfg.MaxRetries {
				ct.board.claim(v, want, false)
				p.forced.Add(1)
				act = a
				break
			}
			if ct.board.claim(v, want, true) {
				act = a
				break
			}
			p.conflicts.Add(1)
			p.retries.Add(1)
			if p.conflictsM != nil {
				p.conflictsM.Inc()
				p.retriesM.Inc()
			}
		}
		p.commits.Add(1)
		if p.commitsM != nil {
			p.commitsM.Inc()
			p.latencyM.Observe(time.Since(start).Seconds())
		}
		acts[p.id] = act
	})
	if err := errors.Join(partErrs...); err != nil {
		return nil, nil, nil, fmt.Errorf("slot %d: %w", t, err)
	}
	merged := acts[0]
	if len(ct.parts) > 1 {
		merged = model.NewAction(c)
		for _, p := range ct.parts {
			for _, i := range p.owned {
				copy(merged.Route[i], acts[p.id].Route[i])
				copy(merged.Process[i], acts[p.id].Process[i])
				copy(merged.Busy[i], acts[p.id].Busy[i])
			}
		}
	}

	// Flow around masked sites: zero their rows so the realized dispatch,
	// the queue dynamics, and the invariant checker's nominal-route checks
	// all agree that nothing moved there. (Schedulers route on backlog, not
	// only on availability, so a masked site's rows are not automatically
	// zero.)
	for _, i := range masked {
		for j := range merged.Route[i] {
			merged.Route[i][j] = 0
			merged.Process[i][j] = 0
		}
		for k := range merged.Busy[i] {
			merged.Busy[i][k] = 0
		}
	}
	if err := merged.Validate(c, st); err != nil {
		return nil, nil, nil, fmt.Errorf("slot %d: infeasible action: %w", t, err)
	}

	// Under Strict an allocate failure below aborts the slot, but the central
	// pops happen first: without a checkpoint the caller's retry of the same
	// slot would pop the same jobs twice and break conservation. Clone the
	// ledgers now and restore them on the abort path so a failed slot leaves
	// the central queues exactly as it found them. (Degrade never aborts.)
	var checkpoint []queue.Ledger
	if !degrade {
		checkpoint = make([]queue.Ledger, c.J())
		for j := range ct.board.ledgers {
			checkpoint[j] = ct.board.ledgers[j].Clone()
		}
	}

	// Phase 4a: realize the merged routing with one central pop pass in
	// (job type, data-center) order, capped at queue content — the same
	// consumption order as queue.Set.Apply, so the distributed run is
	// bit-identical to the single-process simulator and the invariant
	// checker's flow-routed rule recomputes it exactly.
	routed := make([][]int, c.N())
	routedF := make([][]float64, c.N())
	for i := range routed {
		routed[i] = make([]int, c.J())
		routedF[i] = make([]float64, c.J())
	}
	for j := 0; j < c.J(); j++ {
		for i := 0; i < c.N(); i++ {
			r := merged.Route[i][j]
			if r <= 0 {
				continue
			}
			popped, _ := ct.board.ledgers[j].Pop(t, float64(r))
			routed[i][j] = int(popped)
			routedF[i][j] = popped
		}
	}

	// Phase 4b: per-partition scatter to the participating agents.
	acks := make([]transport.AllocateAck, c.N())
	errsA := make([]error, c.N())
	ct.eachPartition(func(p *partition) {
		live := make([]int, 0, len(p.owned))
		for _, i := range p.owned {
			if ok[i] {
				live = append(live, i)
			}
		}
		ct.callMany(ctx, live, transport.KindAllocate,
			func(i int) any {
				return transport.Allocate{
					Slot:    t,
					Route:   routed[i],
					Process: merged.Process[i],
					Busy:    merged.Busy[i],
				}
			},
			func(i int) any { return &acks[i] },
			errsA)
	})
	if !degrade {
		if err := joinAgentErrors("allocate", errsA); err != nil {
			copy(ct.board.ledgers, checkpoint)
			return nil, nil, nil, err
		}
	}

	// Phase 5: advance the shadow ledgers with exactly the dispatched
	// operations, in agent execution order, and settle each agent's ack:
	// verified against the shadow for responders, synthesized from it when
	// the response was lost (the dispatch is authoritative — a rejoining
	// agent is restored onto this trajectory), zero for masked agents whose
	// rows were zeroed.
	processedEv := make([][]float64, c.N())
	for i := 0; i < c.N(); i++ {
		popped, delays := ct.tracker.ApplyShadow(i, t, merged.Process[i], routed[i])
		processedEv[i] = popped
		if !ok[i] {
			acks[i] = transport.AllocateAck{
				Slot:      t,
				Processed: make([]float64, c.J()),
				DelaySum:  make([]float64, c.J()),
			}
			continue
		}
		if errsA[i] != nil {
			ct.tracker.RecordFailure(i)
			acks[i] = ct.tracker.SynthesizeAck(i, t, popped, delays, st, merged)
			continue
		}
		for j := range popped {
			if acks[i].Processed[j] != popped[j] {
				// The agent executed something other than the shadow replay:
				// its trajectory forked mid-slot (e.g. it restarted behind a
				// reconnecting transport and answered empty). De-sync the
				// shadow so the next report re-seeds it.
				ct.tracker.NoteDivergence(i)
				break
			}
		}
	}

	for j, a := range arrivals {
		ct.board.ledgers[j].Push(t, float64(a))
	}

	ct.emitSlot(t, arrivals, st, merged, pre, routedF, processedEv, acks, masked)
	return merged, st, acks, nil
}

// emitSlot assembles and publishes the controller's per-slot telemetry
// event, including the full slot evidence when the observer asks for it.
func (ct *Controller) emitSlot(t int, arrivals []int, st *model.State, act *model.Action,
	pre queue.Lengths, routedF, processedEv [][]float64, acks []transport.AllocateAck, masked []int) {
	obs := ct.cfg.Observer
	if obs == nil {
		return
	}
	c := ct.cluster
	post := queue.Lengths{Central: ct.board.lensUnclaimed(), Local: make([][]float64, c.N())}
	for i := 0; i < c.N(); i++ {
		post.Local[i] = ct.tracker.ShadowLens(i)
	}
	ev := telemetry.SlotEvent{
		Slot:       t,
		Origin:     telemetry.OriginController,
		Scheduler:  ct.parts[0].sch.Name(),
		DataCenter: -1,
		Degraded:   masked,
	}
	ev.EnergyPerDC = make([]float64, c.N())
	alloc := make([]float64, c.M())
	for i, ack := range acks {
		ev.Energy += ack.Energy
		ev.EnergyPerDC[i] = ack.Energy
	}
	for i := range processedEv {
		for j, p := range processedEv[i] {
			ev.Processed += p
			alloc[c.JobTypes[j].Account] += p * c.JobTypes[j].Demand
		}
	}
	ev.Fairness = ct.fair.Score(alloc, st.TotalResource(c))
	for _, a := range arrivals {
		ev.Arrived += float64(a)
	}
	for _, v := range post.Central {
		ev.CentralBacklog += v
	}
	ev.LocalBacklog = make([]float64, c.N())
	for i := range post.Local {
		for _, v := range post.Local[i] {
			ev.LocalBacklog[i] += v
		}
	}
	ev.TotalBacklog = ev.CentralBacklog
	for _, v := range ev.LocalBacklog {
		ev.TotalBacklog += v
	}
	if ct.detail {
		ev.Detail = &telemetry.SlotDetail{
			State:     st.Clone(),
			Action:    act.Clone(),
			Pre:       pre.Clone(),
			Post:      post.Clone(),
			Arrivals:  append([]int(nil), arrivals...),
			Routed:    routedF,
			Processed: processedEv,
		}
	}
	obs.ObserveSlot(ev)
}

// Run drives the loop for the given horizon and aggregates the same metrics
// as the single-process simulator, so results are directly comparable.
func (ct *Controller) Run(slots int, wl workload.Generator) (*sim.Result, error) {
	return ct.RunContext(context.Background(), slots, wl)
}

// RunContext is Run with cancellation: the loop stops between slots as soon
// as the context is done, returning an error wrapping the context's error.
func (ct *Controller) RunContext(ctx context.Context, slots int, wl workload.Generator) (*sim.Result, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("horizon %d is not positive", slots)
	}
	if wl == nil {
		return nil, fmt.Errorf("nil workload")
	}
	c := ct.cluster
	energy := metrics.NewRunning(false)
	fairScore := metrics.NewRunning(false)
	localDelay := make([]*metrics.Ratio, c.N())
	workAvg := make([]*metrics.Running, c.N())
	for i := range localDelay {
		localDelay[i] = metrics.NewRatio(false)
		workAvg[i] = metrics.NewRunning(false)
	}

	res := &sim.Result{SchedulerName: ct.parts[0].sch.Name(), Slots: slots}
	for t := 0; t < slots; t++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("slot %d: run canceled: %w", t, err)
			}
		}
		arrivals := wl.Arrivals(t)
		// Per-slot telemetry (origin "controller") is emitted inside
		// RunSlotContext so degraded-mode evidence reaches observers even when
		// the loop is driven slot-by-slot (grefar-serve, experiments).
		_, st, acks, err := ct.RunSlotContext(ctx, t, arrivals)
		if err != nil {
			return nil, err
		}
		var e float64
		alloc := make([]float64, c.M())
		for i, ack := range acks {
			e += ack.Energy
			var dSum, dCount float64
			for j := 0; j < c.J(); j++ {
				dSum += ack.DelaySum[j]
				dCount += ack.Processed[j]
				alloc[c.JobTypes[j].Account] += ack.Processed[j] * c.JobTypes[j].Demand
				res.TotalProcessed += ack.Processed[j]
			}
			localDelay[i].Add(dSum, dCount)
			workAvg[i].Add(ack.Work)
		}
		energy.Add(e)
		fairScore.Add(ct.fair.Score(alloc, st.TotalResource(c)))
		for _, a := range arrivals {
			res.TotalArrived += float64(a)
		}
	}
	res.AvgEnergy = energy.Mean()
	res.AvgFairness = fairScore.Mean()
	res.AvgLocalDelay = make([]float64, c.N())
	res.AvgWorkPerDC = make([]float64, c.N())
	for i := 0; i < c.N(); i++ {
		res.AvgLocalDelay[i] = localDelay[i].Value()
		res.AvgWorkPerDC[i] = workAvg[i].Mean()
	}
	var backlog float64
	for _, v := range ct.board.lensUnclaimed() {
		backlog += v
	}
	res.FinalBacklog = backlog // central only; agents hold the rest
	return res, nil
}

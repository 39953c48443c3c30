package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"grefar"
	"grefar/internal/agent"
	"grefar/internal/controller"
	"grefar/internal/core"
	"grefar/internal/invariant"
	"grefar/internal/model"
	"grefar/internal/sched"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

// Control-loop settings shared by wan3 and fleet1000, as the daemons default
// them.
const (
	benchV       = 7.5
	benchBeta    = 100
	horizon      = 4096 // input traces wrap past it
	rpcTimeout   = 10 * time.Second
	rpcRetries   = 2
	suspectAfter = 1
	deadAfter    = 3
)

// timedChecker attaches an invariant checker and times its work per slot.
type timedChecker struct {
	ck *invariant.Checker
	ns atomic.Int64
}

func (tc *timedChecker) ObserveSlot(ev telemetry.SlotEvent) {
	start := time.Now()
	tc.ck.ObserveSlot(ev)
	tc.ns.Add(int64(time.Since(start)))
}

func (tc *timedChecker) WantsSlotDetail() bool { return true }

// loopCommon is the part of a controller-driven system both control-loop
// workloads share: the registry and its observer, the quality log, the
// optional checker, and the job accounting.
type loopCommon struct {
	reg     *telemetry.Registry
	regObs  *telemetry.RegistryObserver
	q       *qualityLog
	checker *timedChecker
	tr      *tracer
	in      sim.Inputs

	submitted, completed float64
	lastT                int
	lastAct              *model.Action
	lastAcks             []transport.AllocateAck
}

func newLoopCommon(in sim.Inputs, env buildEnv) *loopCommon {
	lc := &loopCommon{reg: telemetry.NewRegistry(), q: env.q, tr: env.tr, in: in}
	lc.regObs = telemetry.NewRegistryObserver(lc.reg)
	names := make([]string, in.Cluster.N())
	for i, dc := range in.Cluster.DataCenters {
		names[i] = dc.Name
	}
	lc.regObs.SetDCNames(names)
	if env.check {
		lc.checker = &timedChecker{ck: invariant.NewChecker(in.Cluster, invariant.CheckerOptions{})}
	}
	return lc
}

// loopObserver is the controller-side observer: the daemon's registry
// observer, the quality log, and the checker when attached.
func (lc *loopCommon) loopObserver() telemetry.SlotObserver {
	obs := []telemetry.SlotObserver{lc.regObs, lc.q}
	if lc.checker != nil {
		obs = append(obs, lc.checker)
	}
	return telemetry.Multi(obs...)
}

// decideObserver is the scheduler-side observer of the first scheduler.
func (lc *loopCommon) decideObserver() telemetry.SlotObserver {
	if lc.tr != nil {
		return telemetry.Multi(lc.regObs, lc.tr)
	}
	return lc.regObs
}

// newScheduler builds the GreFar scheduler, wrapped for decide timing when
// traced.
func (lc *loopCommon) newScheduler(obs telemetry.SlotObserver) (sched.Scheduler, error) {
	g, err := core.New(lc.in.Cluster, core.Config{V: benchV, Beta: benchBeta, Observer: obs})
	if err != nil {
		return nil, err
	}
	if lc.tr != nil {
		return tracedScheduler{tr: lc.tr, c: lc.in.Cluster, inner: g}, nil
	}
	return g, nil
}

// runSlot drives one slot through fn, the control loop's RunSlotContext.
func (lc *loopCommon) runSlot(t int, fn func(ctx context.Context, t int, arrivals []int) (*model.Action, *model.State, []transport.AllocateAck, error)) (slotTimes, error) {
	arrivals := lc.in.Workload.Arrivals(t)
	var id int32
	if lc.tr != nil {
		id = lc.tr.beginTick(t)
	}
	sw := startWatch()
	act, _, acks, err := fn(context.Background(), t, arrivals)
	tick, tickCPU := sw.elapsed()
	if lc.tr != nil {
		lc.tr.endTick(id)
	}
	if err != nil {
		return slotTimes{}, err
	}
	for _, a := range arrivals {
		lc.submitted += float64(a)
	}
	for _, ack := range acks {
		for _, p := range ack.Processed {
			lc.completed += p
		}
	}
	lc.lastT, lc.lastAct, lc.lastAcks = t, act, acks
	rec, err := lc.q.at(t)
	if err != nil {
		return slotTimes{}, err
	}
	return slotTimes{tick: tick, tickCPU: tickCPU, agentSlots: lc.in.Cluster.N(), degraded: rec.degraded}, nil
}

func (lc *loopCommon) checkErr() error {
	if lc.checker == nil {
		return nil
	}
	return lc.checker.ck.Err()
}

func (lc *loopCommon) checkCost() time.Duration {
	if lc.checker == nil {
		return 0
	}
	return time.Duration(lc.checker.ns.Load())
}

// rtt reads the health tracker's grefar_controller_agent_rtt_seconds
// histogram: summed seconds and observation count over all agents.
func (lc *loopCommon) rtt() (sum, count float64, err error) {
	return registryStat(lc.reg, "grefar_controller_agent_rtt_seconds")
}

// wan3 is the paper's Table I three-site cluster wired as the daemons wire
// it: each agent serves on the plain transport server over loopback TCP and
// a single Degrade-policy controller reaches it through a ReconnectClient.
type wan3 struct {
	*loopCommon
	agents  []*agent.Agent
	servers []*transport.Server
	served  []chan error // Serve's result, for servers the benchmark starts
	clients []*transport.ReconnectClient
	ct      *controller.Controller
	rtt0    [2]float64 // RTT histogram sum and count when the timed window opened
}

func buildWan3(env buildEnv) (system, error) {
	in, err := grefar.ReferenceInputs(env.seed, horizon)
	if err != nil {
		return nil, err
	}
	c := in.Cluster
	w := &wan3{loopCommon: newLoopCommon(in, env)}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	conns := make([]controller.AgentConn, c.N())
	for i := 0; i < c.N(); i++ {
		a, err := agent.New(agent.Config{Cluster: c, DataCenter: i, Price: in.Prices[i], Availability: in.Availability})
		if err != nil {
			return nil, err
		}
		w.agents = append(w.agents, a)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if env.tr == nil {
			w.servers = append(w.servers, a.Serve(lis))
		} else {
			// Agent.Serve with the handler wrapped for timing.
			srv := transport.NewServer(lis, env.tr.handler(a.Handle))
			done := make(chan error, 1)
			go func() { done <- srv.Serve() }()
			w.servers = append(w.servers, srv)
			w.served = append(w.served, done)
		}
		cli := transport.NewReconnectClient(w.servers[i].Addr(), rpcTimeout, rpcRetries)
		w.clients = append(w.clients, cli)
		var pong transport.Ping
		if err := cli.Call(transport.KindPing, transport.Ping{Nonce: uint64(i)}, &pong); err != nil {
			return nil, fmt.Errorf("agent %d ping: %w", i, err)
		}
		if env.tr != nil {
			conns[i] = tracedConn{tr: env.tr, inner: cli}
		} else {
			conns[i] = cli
		}
	}
	s, err := w.newScheduler(w.decideObserver())
	if err != nil {
		return nil, err
	}
	w.ct, err = controller.New(c, s, conns,
		controller.WithObserver(w.loopObserver()),
		controller.WithFailurePolicy(controller.Degrade),
		controller.WithHealthThresholds(suspectAfter, deadAfter),
		controller.WithHealthMetrics(w.reg),
	)
	if err != nil {
		return nil, err
	}
	ok = true
	return w, nil
}

func (w *wan3) openWindow() error {
	var err error
	w.rtt0[0], w.rtt0[1], err = w.rtt()
	return err
}

func (w *wan3) slot(t int) (slotTimes, error) {
	return w.runSlot(t, w.ct.RunSlotContext)
}

func (w *wan3) ledger() (ledger, error) {
	l := ledger{submitted: w.submitted, completed: w.completed}
	for _, v := range w.ct.CentralLens() {
		l.queued += v
	}
	for _, a := range w.agents {
		for _, v := range a.QueueLens() {
			l.queued += v
		}
	}
	return l, nil
}

func (w *wan3) layers(win *window, ms *metricSet) error {
	b := w.tr.breakdown()
	ticks := float64(b.ticks)
	ms.set("controller.gather_ms_mean", b.perTickMS(spanCallState))
	ms.set("controller.scatter_ms_mean", b.perTickMS(spanCallAlloc))
	ms.set("controller.self_ms_mean", float64(b.tickNS-b.coveredNS)/ticks/1e6)
	ms.set("agent.handle_us.state", 1000*b.meanMS(spanHandleState))
	ms.set("agent.handle_us.allocate", 1000*b.meanMS(spanHandleAlloc))
	sum, count, err := w.rtt()
	if err != nil {
		return err
	}
	rttMS := 0.0
	if dc := count - w.rtt0[1]; dc > 0 {
		rttMS = 1000 * (sum - w.rtt0[0]) / dc
	}
	calls := map[string]float64{
		transport.KindState:    float64(b.count[spanCallState]) / ticks,
		transport.KindAllocate: float64(b.count[spanCallAlloc]) / ticks,
		transport.KindPing:     float64(b.count[spanCallPing]) / ticks,
	}
	samples, err := agentSamples(w.agents, w.lastT, w.lastAct, w.lastAcks)
	if err != nil {
		return err
	}
	return setTransport(ms, calls, samples, rttMS)
}

func (w *wan3) close() error {
	var errs []error
	for _, cli := range w.clients {
		errs = append(errs, cli.Close())
	}
	for _, srv := range w.servers {
		errs = append(errs, srv.Close())
	}
	for _, done := range w.served {
		<-done // Serve returns once its listener is closed
	}
	return errors.Join(errs...)
}

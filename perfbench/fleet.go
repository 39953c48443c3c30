package main

import (
	"errors"
	"runtime"

	"grefar/internal/agent"
	"grefar/internal/controller"
	"grefar/internal/controlplane"
	"grefar/internal/hollow"
	"grefar/internal/sched"
	"grefar/internal/transport"
)

// Fleet shape: 1000 hollow agents behind one MuxServer, driven by the
// partitioned control plane as grefar-controller -partitions 4 runs it.
const (
	fleetAgents     = 1000
	fleetPartitions = 4
	fleetMaxConns   = 4 // the fleet's default connection count
)

// fleet is the 1000-agent hollow fleet under four concurrent control-plane
// partitions. Its MuxConns are never wrapped: the plane batches calls only
// for *transport.MuxConn, and a wrapper would move it onto the per-agent
// fallback path.
type fleet struct {
	*loopCommon
	fl *hollow.Fleet
	pl *controlplane.Plane

	// Counter values when the measured window opened.
	rtt0, commit0 [2]float64
	stats0        []controlplane.PartitionStats
}

func buildFleet(env buildEnv) (system, error) {
	in, err := hollow.NewScaleInputs(env.seed, fleetAgents, horizon)
	if err != nil {
		return nil, err
	}
	f := &fleet{loopCommon: newLoopCommon(in, env)}
	f.fl, err = hollow.NewFleet(in, hollow.Options{Conns: min(fleetMaxConns, runtime.NumCPU())})
	if err != nil {
		return nil, err
	}
	// As in grefar-controller, only the first scheduler gets the decision
	// observer, so the plane emits one decide stream per slot.
	built := 0
	f.pl, err = controlplane.New(in.Cluster, f.fl.Conns(), controlplane.Config{
		Partitions: fleetPartitions,
		NewScheduler: func() (sched.Scheduler, error) {
			built++
			if built == 1 {
				return f.newScheduler(f.decideObserver())
			}
			if f.tr != nil {
				return f.newScheduler(f.tr)
			}
			return f.newScheduler(nil)
		},
		Policy:       controller.Degrade,
		SuspectAfter: suspectAfter,
		DeadAfter:    deadAfter,
		Observer:     f.loopObserver(),
		Registry:     f.reg,
	})
	if err != nil {
		f.fl.Close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) slot(t int) (slotTimes, error) {
	return f.runSlot(t, f.pl.RunSlotContext)
}

func (f *fleet) openWindow() error {
	var err error
	f.rtt0[0], f.rtt0[1], err = f.rtt()
	if err != nil {
		return err
	}
	f.commit0[0], f.commit0[1], err = registryStat(f.reg, "grefar_controlplane_commit_seconds")
	f.stats0 = f.pl.Stats()
	return err
}

func (f *fleet) ledger() (ledger, error) {
	l := ledger{submitted: f.submitted, completed: f.completed, queued: f.fl.TotalBacklog()}
	for _, v := range f.pl.CentralLens() {
		l.queued += v
	}
	return l, nil
}

func (f *fleet) layers(win *window, ms *metricSet) error {
	b := f.tr.breakdown()
	ticks := float64(b.ticks)
	// The wire phases are not wrapped here, so the controller phases are
	// read off the decide spans: everything before the first decide of a
	// slot (probe, gather, state assembly) and everything after the last
	// (commit merge, central pops, scatter, settlement).
	ms.set("controller.gather_ms_mean", float64(b.firstChild)/ticks/1e6)
	ms.set("controller.scatter_ms_mean", float64(b.afterLast)/ticks/1e6)
	ms.set("controller.self_ms_mean", float64(b.tickNS-b.firstChild-b.afterLast-b.classNS[spanDecide])/ticks/1e6)

	var conflicts, retries, forced, commits int64
	for i, s := range f.pl.Stats() {
		conflicts += s.Conflicts - f.stats0[i].Conflicts
		retries += s.Retries - f.stats0[i].Retries
		forced += s.Forced - f.stats0[i].Forced
		commits += s.Commits - f.stats0[i].Commits
	}
	ms.set("controlplane.conflicts_per_slot", float64(conflicts)/ticks)
	ms.set("controlplane.retries_per_slot", float64(retries)/ticks)
	ms.set("controlplane.forced_per_slot", float64(forced)/ticks)
	if d := b.count[spanDecide]; d > 0 {
		ms.set("controlplane.commit_ratio", float64(commits)/float64(d))
	}
	csum, ccount, err := registryStat(f.reg, "grefar_controlplane_commit_seconds")
	if err != nil {
		return err
	}
	if dc := ccount - f.commit0[1]; dc > 0 {
		ms.set("controlplane.commit_ms_mean", 1000*(csum-f.commit0[0])/dc)
	}

	// Every agent RPC is one observation of the tracker's RTT histogram (a
	// batched call records its batch round trip for each agent in it). A
	// fault-free slot is one state and one allocate call per agent.
	sum, count, err := f.rtt()
	if err != nil {
		return err
	}
	dc := count - f.rtt0[1]
	if dc <= 0 {
		return errors.New("no agent round trips recorded in the traced window")
	}
	perKind := dc / 2 / ticks
	calls := map[string]float64{transport.KindState: perKind, transport.KindAllocate: perKind}
	agents := make([]*agent.Agent, f.fl.N())
	for i := range agents {
		agents[i] = f.fl.Agent(i)
	}
	samples, err := agentSamples(agents, f.lastT, f.lastAct, f.lastAcks)
	if err != nil {
		return err
	}
	return setTransport(ms, calls, samples, 1000*(sum-f.rtt0[0])/dc)
}

func (f *fleet) close() error {
	return f.fl.Close()
}

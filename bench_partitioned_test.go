package grefar_test

import (
	"fmt"
	"testing"

	"grefar/internal/controller"
	"grefar/internal/core"
	"grefar/internal/hollow"
	"grefar/internal/sched"
)

// partitionedBenchCells is the (fleet size, partition count) sweep recorded
// in BENCH_distributed.json. BenchmarkHollowSlot at the same agent counts is
// the one-partition baseline these cells are read against.
var partitionedBenchCells = []struct{ agents, parts int }{
	{500, 4},
	{1000, 4},
	{1000, 8},
	{2000, 8},
}

// BenchmarkPartitionedSlot measures one slot tick of the partitioned control
// plane against a hollow fleet: P concurrent controller partitions each
// batch-gathering from their owned agents, deciding against the shared
// versioned queue board, committing optimistically, and batch-scattering
// their allocations. Compared with BenchmarkHollowSlot/agents=N it shows
// what partition concurrency buys (and what the commit protocol costs) on
// the slot-tick critical path; make bench-compare fails on >15% regressions.
func BenchmarkPartitionedSlot(b *testing.B) {
	for _, cell := range partitionedBenchCells {
		b.Run(fmt.Sprintf("agents=%d/parts=%d", cell.agents, cell.parts), func(b *testing.B) {
			benchFleetSlot(b, cell.agents, cell.parts)
		})
	}
}

// benchFleetSlot times one Degrade-policy slot tick of a parts-partition
// controller against a hollow fleet of the given size.
func benchFleetSlot(b *testing.B, agents, parts int) {
	in, err := hollow.NewScaleInputs(2012, agents, 4096)
	if err != nil {
		b.Fatal(err)
	}
	fleet, err := hollow.NewFleet(in, hollow.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer fleet.Close()
	ct, err := controller.NewPartitioned(in.Cluster, fleet.Conns(), controller.Config{
		Partitions: parts,
		NewScheduler: func() (sched.Scheduler, error) {
			return core.New(in.Cluster, core.Config{V: 7.5, Beta: 100})
		},
		Policy: controller.Degrade,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i % 4096
		if _, _, _, err := ct.RunSlot(t, in.Workload.Arrivals(t)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

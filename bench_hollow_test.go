package grefar_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"grefar/internal/controller"
	"grefar/internal/core"
	"grefar/internal/hollow"
)

// hollowBenchSizes is the fleet-size sweep recorded in BENCH_distributed.json.
var hollowBenchSizes = []int{100, 500, 1000, 2000}

// BenchmarkHollowSlot measures one real control-loop slot tick against a
// hollow fleet of N in-process agents behind the multiplexed gob-over-TCP
// wire with one controller partition: the gather from N agents batched per
// connection, the GreFar decision over N sites, and the batched allocate
// scatter with ack settlement. This is the number ROADMAP's
// control-plane scale work is judged by — BENCH_distributed.json tracks it
// per fleet size, and make bench-compare fails on >15% regressions.
func BenchmarkHollowSlot(b *testing.B) {
	for _, n := range hollowBenchSizes {
		b.Run(fmt.Sprintf("agents=%d", n), func(b *testing.B) {
			benchFleetSlot(b, n, 1)
		})
	}
}

// TestHollowBenchHarnessLeaksNoGoroutines is the hollow counterpart of the
// distributed harness leak test: one fleet start/run/close cycle must return
// the process to its prior goroutine count.
func TestHollowBenchHarnessLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	in, err := hollow.NewScaleInputs(2012, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := hollow.NewFleet(in, hollow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.New(in.Cluster, core.Config{V: 7.5, Beta: 100})
	if err != nil {
		fleet.Close()
		t.Fatal(err)
	}
	ct, err := controller.New(in.Cluster, g, fleet.Conns(),
		controller.WithFailurePolicy(controller.Degrade))
	if err != nil {
		fleet.Close()
		t.Fatal(err)
	}
	for tt := 0; tt < 3; tt++ {
		if _, _, _, err := ct.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
			fleet.Close()
			t.Fatal(err)
		}
	}
	fleet.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines: %d before harness, %d after close", before, got)
	}
}

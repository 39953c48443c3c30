package main

import "fmt"

// decl declares one reported metric. The same names, units and order are
// declared in BENCHMARK.json; TestDeclaredMetricsMatchBenchmarkJSON keeps the
// two in step.
type decl struct{ name, unit string }

// endToEnd are the metrics an untraced run (--trace 0) reports on every
// workload.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"tick_cpu_p50_ms", "ms"},
	{"tick_cpu_p90_ms", "ms"},
	{"slots_per_cpu_s", "1/s"},
	{"allocs_per_slot", "count"},
	{"heap_peak_mb", "MB"},
	{"energy_cost_per_slot", "cost"},
	{"unfairness_per_slot", "score"},
	{"backlog_mean", "jobs"},
}

// perLayer are the metrics a traced run (--trace 1) reports. Every workload
// reports all of them; a layer the workload does not cross reads 0 (see
// README.md for which layer applies where).
var perLayer = []decl{
	{"core.decide_ms_mean", "ms"},
	{"core.decide_share", "ratio"},
	{"core.decide_calls_per_slot", "count"},
	{"core.fw_iters_mean", "count"},
	{"core.active_pair_share", "ratio"},
	{"transport.calls_per_slot.state", "count"},
	{"transport.calls_per_slot.allocate", "count"},
	{"transport.calls_per_slot.ping", "count"},
	{"transport.rtt_ms_mean", "ms"},
	{"transport.codec_us.state", "us"},
	{"transport.codec_us.allocate", "us"},
	{"transport.codec_allocs.state", "count"},
	{"transport.codec_allocs.allocate", "count"},
	{"transport.bytes_per_slot", "bytes"},
	{"controller.gather_ms_mean", "ms"},
	{"controller.scatter_ms_mean", "ms"},
	{"controller.self_ms_mean", "ms"},
	{"controlplane.conflicts_per_slot", "count"},
	{"controlplane.retries_per_slot", "count"},
	{"controlplane.forced_per_slot", "count"},
	{"controlplane.commit_ms_mean", "ms"},
	{"controlplane.commit_ratio", "ratio"},
	{"agent.handle_us.state", "us"},
	{"agent.handle_us.allocate", "us"},
	{"serve.tick_self_ms_mean", "ms"},
	{"serve.checkpoint_ms_mean", "ms"},
	{"serve.checkpoint_bytes", "bytes"},
	{"serve.submit_p50_ms", "ms"},
	{"serve.submit_p90_ms", "ms"},
	{"invariant.check_us_per_slot", "us"},
	{"runtime.gc_cycles_per_slot", "count"},
	{"runtime.goroutines_peak", "count"},
	{"quality.backlog_growth", "ratio"},
	{"trace.covered_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"wall.tick_p50_ms", "ms"},
	{"wall.tick_p90_ms", "ms"},
	{"wall.slots_per_s", "1/s"},
	{"wall.setup_s", "s"},
	{"host.probe_us", "us"},
}

// metricSet collects one run's values for a declared metric list.
type metricSet struct {
	decls  []decl
	values map[string]float64
}

func newMetricSet(decls []decl) *metricSet {
	return &metricSet{decls: decls, values: make(map[string]float64)}
}

// set records a value; naming an undeclared metric is a bug in the
// benchmark.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.decls {
		if d.name == name {
			m.values[name] = v
			return
		}
	}
	panic(fmt.Sprintf("perfbench: metric %q is not declared", name))
}

// export returns every declared metric; a metric the workload does not
// produce reads 0.
func (m *metricSet) export() map[string]metric {
	out := make(map[string]metric, len(m.decls))
	for _, d := range m.decls {
		out[d.name] = metric{Value: m.values[d.name], Unit: d.unit}
	}
	return out
}

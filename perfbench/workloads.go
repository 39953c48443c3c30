package main

import "strings"

// specs are the benchmark's workloads, in the order --workload all runs
// them; README.md says why each exists.
var specs = []spec{
	{
		name: "wan3", warmup: 200, quality: 2000, chunk: 1000, checkSlots: 2000,
		deterministic: true, build: buildWan3,
	},
	{
		name: "fleet1000", warmup: 8, quality: 100, chunk: 100, checkSlots: 40,
		build: buildFleet,
	},
	{
		name: "serve-large", warmup: 400, quality: 500, chunk: 250, checkSlots: 500,
		deterministic: true, build: buildServe,
	},
}

// selectSpecs returns the named workload, or every workload for "all".
func selectSpecs(name string) ([]spec, bool) {
	if name == "all" {
		return specs, true
	}
	for _, sp := range specs {
		if sp.name == name {
			return []spec{sp}, true
		}
	}
	return nil, false
}

func workloadNames() string {
	names := []string{"all"}
	for _, sp := range specs {
		names = append(names, sp.name)
	}
	return strings.Join(names, ", ")
}

# GreFar build targets. The module is stdlib-only; everything here is plain
# go tooling.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test tier1 vet race bench bench-slot bench-json bench-compare hollow-bench fuzz golden check clean

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# tier1 is the merge gate: compile, vet, the full test suite under the race
# detector (the sweep-engine tests in internal/runner and the parallel
# experiment fan-out only prove determinism when raced; the serving layer in
# internal/serve and cmd/grefar-serve only proves its tick/checkpoint locking
# when raced; the degraded-mode controller and the chaos transport only prove
# their kill/restart determinism when raced), the Decide allocation-budget
# guard (which -race skips, so it runs plain here), race-enabled hollow
# smokes (64 in-process agents, 5 slots, 5% killed mid-run — the degraded-mode
# cycle end to end, once with one controller partition and once with two), a
# race-enabled rerun of the sparse solver suite (the default slot solver,
# pinned bit-identical to the dense reference), and a short fuzz smoke of the
# native fuzz targets, including the snapshot-restore, wire-frame, and
# incremental-refresh surfaces. The benchmark harness under perfbench/ is its
# own module, so the root build never compiles it; tier1 builds and vets it
# so an API change that breaks the harness fails here.
tier1:
	$(GO) build ./...
	$(GO) vet ./...
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/runner
	$(GO) test -race -count=1 ./internal/serve/... ./cmd/grefar-serve
	$(GO) test -race -count=1 ./internal/controller ./internal/controlplane ./internal/transport/... ./internal/experiments ./internal/hollow
	$(GO) test -race -count=1 -run TestSparse ./internal/core
	$(GO) run -race ./cmd/grefar-hollow -agents 64 -slots 5 -kill-frac 0.05
	$(GO) run -race ./cmd/grefar-hollow -agents 64 -slots 5 -kill-frac 0.05 -partitions 2
	$(GO) test -count=1 -run TestDecideAllocationBudget .
	$(GO) test -run '^$$' -fuzz FuzzSimplex -fuzztime $(FUZZTIME) ./internal/lp
	$(GO) test -run '^$$' -fuzz FuzzApply -fuzztime $(FUZZTIME) ./internal/queue
	$(GO) test -run '^$$' -fuzz FuzzWarmRepair -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzSparseRefresh -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRestoreSnapshot -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/serve/snapshot
	$(GO) test -run '^$$' -fuzz FuzzServerFrame -fuzztime $(FUZZTIME) ./internal/transport

# fuzz runs the native fuzz targets for FUZZTIME each (default 10s); raise it
# for a deeper soak, e.g. make fuzz FUZZTIME=5m.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSimplex -fuzztime $(FUZZTIME) ./internal/lp
	$(GO) test -run '^$$' -fuzz FuzzApply -fuzztime $(FUZZTIME) ./internal/queue
	$(GO) test -run '^$$' -fuzz FuzzWarmRepair -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzSparseRefresh -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRestoreSnapshot -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/serve/snapshot
	$(GO) test -run '^$$' -fuzz FuzzServerFrame -fuzztime $(FUZZTIME) ./internal/transport

# golden regenerates the committed golden traces — the healthy ones under
# internal/invariant/testdata/golden, the degraded-mode chaos trace under
# internal/controller/testdata, and the partitioned trace under
# internal/controlplane/testdata — after an intentional behavior change.
# Inspect the diff before committing: every changed line is a behavior change.
golden:
	$(GO) test ./internal/invariant -run TestGoldenTraces -update
	$(GO) test ./internal/controller -run TestGoldenChaosTrace -update
	$(GO) test ./internal/controlplane -run TestPartitionedMatchesSingle -update

# check replays the paper's reference experiment with the invariant checker
# attached: queue dynamics (12)-(13), action feasibility, job conservation,
# and the drift-plus-penalty objective are re-verified every slot.
check: build
	$(GO) run ./cmd/grefar-sim -experiment table1 -check

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-slot guards the hot path: it runs the per-slot Decide benchmark with
# allocation reporting, then enforces the allocs/op ceilings recorded in
# testdata/bench_slot_baseline.txt via TestDecideAllocationBudget. The test
# fails if allocs/op regresses above the baseline; after an intentional
# change, measure with the benchmark and edit the baseline file.
bench-slot:
	$(GO) test -run '^$$' -bench BenchmarkSlotDecision -benchmem .
	$(GO) test -count=1 -run TestDecideAllocationBudget -v .

# SLOT_BENCHES is the set recorded in BENCH_slot.json: the per-slot solver
# cost on the reference cluster (with and without the warm-started away-step
# path) plus the large N=200/J=100 instance at ~10% active-pair density.
# DIST_BENCHES is the set recorded in BENCH_distributed.json: the 3-agent
# point-to-point controller round, the hollow-fleet sweep at 100/500/1000/2000
# agents, and the partitioned-control-plane cells (agents x partitions).
SLOT_BENCHES = BenchmarkSlotDecision$$
DIST_BENCHES = BenchmarkDistributedSlot$$|BenchmarkHollowSlot/|BenchmarkPartitionedSlot/
BENCHCOUNT ?= 3

# bench-json refreshes the committed baselines BENCH_slot.json and
# BENCH_distributed.json. Run it after an intentional performance change and
# commit the diff.
bench-json:
	$(GO) test -run '^$$' -bench '$(SLOT_BENCHES)' -benchmem -count=$(BENCHCOUNT) . \
		| $(GO) run ./cmd/benchjson -out BENCH_slot.json
	$(GO) test -run '^$$' -bench '$(DIST_BENCHES)' -benchmem -count=$(BENCHCOUNT) . \
		| $(GO) run ./cmd/benchjson -out BENCH_distributed.json

# bench-compare re-runs the same benchmarks and fails on >15% ns/op or
# allocs/op regressions, or on a guarded baseline benchmark missing from the
# run: the beta=100 slot decisions (cold and warm) and the N=200/J=100 large
# instance against BENCH_slot.json (the benchjson default guard covers both
# families), and the distributed slot ticks (point-to-point and every hollow
# fleet size) against BENCH_distributed.json; other benchmarks warn.
bench-compare:
	$(GO) test -run '^$$' -bench '$(SLOT_BENCHES)' -benchmem -count=$(BENCHCOUNT) . \
		| $(GO) run ./cmd/benchjson -compare BENCH_slot.json -max-regress 0.15
	$(GO) test -run '^$$' -bench '$(DIST_BENCHES)' -benchmem -count=$(BENCHCOUNT) . \
		| $(GO) run ./cmd/benchjson -compare BENCH_distributed.json \
			-guard '^BenchmarkDistributedSlot$$|^BenchmarkHollowSlot|^BenchmarkPartitionedSlot' -max-regress 0.15

# hollow-bench runs the hollow-fleet scale sweep locally — fault-free and
# chaos variants at each fleet size — and prints the measurement table
# (slot-tick latency percentiles, throughput, allocs/slot, heap ceiling).
hollow-bench: build
	$(GO) run ./cmd/grefar-sim -experiment scale

clean:
	$(GO) clean ./...

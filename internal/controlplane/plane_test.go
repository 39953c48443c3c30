package controlplane

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"grefar/internal/agent"
	"grefar/internal/controller"
	"grefar/internal/core"
	"grefar/internal/invariant"
	"grefar/internal/sched"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_partitioned.jsonl")

// localConn adapts an in-process agent to controller.AgentConn without TCP,
// mirroring the controller package's unit-test harness. The tests here drive
// the partitioned loop through this package's aliases, the surface the
// benchmark harness compiles against.
type localConn struct {
	a interface {
		Handle(kind string, body []byte) (any, error)
	}
}

func (l localConn) Call(kind string, reqBody, respBody any) error {
	body, err := transport.Marshal(reqBody)
	if err != nil {
		return err
	}
	out, err := l.a.Handle(kind, body)
	if err != nil {
		return err
	}
	if respBody == nil {
		return nil
	}
	data, err := transport.Marshal(out)
	if err != nil {
		return err
	}
	return transport.Unmarshal(data, respBody)
}

func buildSystem(t *testing.T, slots int) (sim.Inputs, []controller.AgentConn, func()) {
	t.Helper()
	in, err := sim.NewReferenceInputs(2012, slots)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]controller.AgentConn, in.Cluster.N())
	for i := 0; i < in.Cluster.N(); i++ {
		a, err := agent.New(agent.Config{
			Cluster:      in.Cluster,
			DataCenter:   i,
			Price:        in.Prices[i],
			Availability: in.Availability,
		})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = localConn{a: a}
	}
	return in, conns, func() {}
}

func grefarFactory(in sim.Inputs) func() (sched.Scheduler, error) {
	return func() (sched.Scheduler, error) {
		return core.New(in.Cluster, core.Config{V: 7.5})
	}
}

// TestPartitionedMatchesSingle pins the deterministic-mode equivalence that
// makes partitioning trustworthy: with commit validation off and every
// partition deciding from the slot-initial snapshot, a P-partition
// controller must reproduce the one-partition (single controller) event
// trace byte for byte, for every partition count, and the one-partition
// trace must match the checked-in golden trace.
// Regenerate deliberately with
// `go test ./internal/controlplane -run TestPartitionedMatchesSingle -update`.
func TestPartitionedMatchesSingle(t *testing.T) {
	const slots = 24

	runPartitioned := func(parts int) ([]byte, *Plane) {
		in, conns, cleanup := buildSystem(t, slots)
		defer cleanup()
		var buf bytes.Buffer
		pl, err := New(in.Cluster, conns, Config{
			Partitions:    parts,
			Deterministic: true,
			NewScheduler:  grefarFactory(in),
			Observer:      telemetry.NewJSONLObserver(&buf),
		})
		if err != nil {
			t.Fatal(err)
		}
		for tt := 0; tt < slots; tt++ {
			if _, _, _, err := pl.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
				t.Fatalf("P=%d slot %d: %v", parts, tt, err)
			}
		}
		for _, st := range pl.Stats() {
			if st.Conflicts != 0 || st.Forced != 0 {
				t.Errorf("P=%d partition %d: deterministic mode recorded conflicts=%d forced=%d",
					parts, st.Partition, st.Conflicts, st.Forced)
			}
			if st.Commits != slots {
				t.Errorf("P=%d partition %d: %d commits, want %d", parts, st.Partition, st.Commits, slots)
			}
		}
		return buf.Bytes(), pl
	}

	golden, _ := runPartitioned(1)
	for parts := 2; parts <= 3; parts++ {
		trace, _ := runPartitioned(parts)
		if diff := invariant.DiffJSONL(trace, golden); diff != "" {
			t.Fatalf("P=%d deterministic trace deviates from P=1:\n%s", parts, diff)
		}
	}

	path := filepath.Join("testdata", "golden_partitioned.jsonl")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, golden, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(golden))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden partitioned trace (regenerate with -update): %v", err)
	}
	if diff := invariant.DiffJSONL(golden, want); diff != "" {
		t.Errorf("partitioned trace deviates from %s:\n%s", path, diff)
	}
}

// TestConcurrentCommitsKeepInvariants runs the plane in full optimistic
// concurrency — every partition snapshotting, deciding, and committing
// against the live board — with the invariant checker attached: whatever
// interleaving the scheduler produces, every applied slot must satisfy
// conservation, queue dynamics, and flow realization, and the commit
// telemetry must account for every slot.
func TestConcurrentCommitsKeepInvariants(t *testing.T) {
	const slots, parts = 40, 3
	in, conns, cleanup := buildSystem(t, slots)
	defer cleanup()
	ck := invariant.NewChecker(in.Cluster, invariant.CheckerOptions{})
	reg := telemetry.NewRegistry()
	pl, err := New(in.Cluster, conns, Config{
		Partitions:   parts,
		NewScheduler: grefarFactory(in),
		Observer:     ck,
		Registry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < slots; tt++ {
		if _, _, _, err := pl.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
			t.Fatalf("slot %d: %v", tt, err)
		}
	}
	if err := ck.Err(); err != nil {
		t.Errorf("invariant violation under concurrent commits: %v", err)
	}
	if ck.Slots() != slots {
		t.Errorf("checker saw %d slots, want %d", ck.Slots(), slots)
	}
	var commits, conflicts, retries int64
	for _, st := range pl.Stats() {
		commits += st.Commits
		conflicts += st.Conflicts
		retries += st.Retries
		if st.Commits != slots {
			t.Errorf("partition %d: %d commits, want %d", st.Partition, st.Commits, slots)
		}
	}
	if commits != int64(slots*parts) {
		t.Errorf("total commits %d, want %d", commits, slots*parts)
	}
	if conflicts != retries {
		t.Errorf("conflicts %d != retries %d: every rejection must trigger exactly one retry", conflicts, retries)
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"grefar_controlplane_commits_total",
		"grefar_controlplane_commit_conflicts_total",
		"grefar_controlplane_commit_seconds",
	} {
		if !strings.Contains(prom.String(), fam) {
			t.Errorf("registry missing %s", fam)
		}
	}
}

// failFromConn fails every call to one agent from a given slot onward,
// modeling a mid-run outage visible only at the wire.
type failFromConn struct {
	inner controller.AgentConn
	down  *atomic.Bool
}

func (f failFromConn) Call(kind string, reqBody, respBody any) error {
	if f.down.Load() {
		return errors.New("failFromConn: agent unreachable")
	}
	return f.inner.Call(kind, reqBody, respBody)
}

// TestPartitionedDegradeMasksFailedAgent checks that the partition owning a
// failed agent drives the shared health machine: under Degrade the run continues, the failed agent is masked
// out of the slot evidence, its health leaves Healthy, and the invariant
// checker holds on every applied slot.
func TestPartitionedDegradeMasksFailedAgent(t *testing.T) {
	const slots, failAt, victim = 16, 4, 1
	in, conns, cleanup := buildSystem(t, slots)
	defer cleanup()
	var down atomic.Bool
	conns[victim] = failFromConn{inner: conns[victim], down: &down}
	ck := invariant.NewChecker(in.Cluster, invariant.CheckerOptions{})
	var buf bytes.Buffer
	pl, err := New(in.Cluster, conns, Config{
		Partitions:   3,
		NewScheduler: grefarFactory(in),
		Policy:       controller.Degrade,
		SuspectAfter: 1,
		DeadAfter:    3,
		Observer:     telemetry.MultiObserver{ck, telemetry.NewJSONLObserver(&buf)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < slots; tt++ {
		if tt == failAt {
			down.Store(true)
		}
		if _, _, _, err := pl.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
			t.Fatalf("degrade slot %d: %v", tt, err)
		}
	}
	if err := ck.Err(); err != nil {
		t.Errorf("invariant violation in degraded partitioned run: %v", err)
	}
	if got := pl.Health()[victim]; got == controller.Healthy {
		t.Errorf("victim agent still Healthy after %d failed slots", slots-failAt)
	}
	events := bytes.Count(buf.Bytes(), []byte(`"degraded":[`))
	masked := bytes.Count(buf.Bytes(), []byte(`"degraded":[1]`))
	if masked == 0 {
		t.Errorf("no slot event masked agent %d (saw %d degraded fields)", victim, events)
	}
}

// TestNewValidation pins the constructor's error surface.
func TestNewValidation(t *testing.T) {
	in, conns, cleanup := buildSystem(t, 8)
	defer cleanup()
	fac := grefarFactory(in)
	if _, err := New(in.Cluster, conns, Config{Partitions: 0, NewScheduler: fac}); err == nil {
		t.Error("zero partitions accepted")
	}
	if _, err := New(in.Cluster, conns, Config{Partitions: in.Cluster.N() + 1, NewScheduler: fac}); err == nil {
		t.Error("more partitions than data centers accepted")
	}
	if _, err := New(in.Cluster, conns, Config{Partitions: 2}); err == nil {
		t.Error("nil scheduler factory accepted")
	}
	if _, err := New(in.Cluster, conns[:1], Config{Partitions: 1, NewScheduler: fac}); err == nil {
		t.Error("missing agent conns accepted")
	}
	pl, err := New(in.Cluster, conns, Config{Partitions: 2, NewScheduler: fac})
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Partitions(); got != 2 {
		t.Errorf("Partitions() = %d, want 2", got)
	}
	seen := make(map[int]bool)
	for p := 0; p < 2; p++ {
		for _, i := range pl.Owned(p) {
			if seen[i] {
				t.Errorf("data center %d owned by two partitions", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != in.Cluster.N() {
		t.Errorf("ownership covers %d of %d data centers", len(seen), in.Cluster.N())
	}
}

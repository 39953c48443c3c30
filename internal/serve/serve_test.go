package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"grefar/internal/core"
	"grefar/internal/queue"
	"grefar/internal/sim"
)

// testConfig builds a serving-mode session config: the reference environment
// with the workload generator removed, so every arrival comes from Submit.
func testConfig(t *testing.T, sched core.Config) SessionConfig {
	t.Helper()
	in, err := sim.NewReferenceInputs(2012, 256)
	if err != nil {
		t.Fatal(err)
	}
	in.Workload = nil
	return SessionConfig{
		Inputs:    in,
		Scheduler: sched,
		Sim:       sim.Options{ValidateActions: true, Check: true},
	}
}

// arrivalSchedule is a deterministic ingest stream: the jobs submitted
// before each slot's tick. Replaying it drives identical sessions.
func arrivalSchedule(slots, j int) [][]Job {
	out := make([][]Job, slots)
	for s := range out {
		var jobs []Job
		for typ := 0; typ < j; typ++ {
			if n := (s + 3*typ) % 7; n > 0 {
				jobs = append(jobs, Job{Type: typ, Count: n})
			}
		}
		out[s] = jobs
	}
	return out
}

func TestSessionSubmitValidation(t *testing.T) {
	s, err := NewSession(testConfig(t, core.Config{V: 7.5}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit([]Job{{Type: -1}}); !errors.Is(err, ErrBadJob) {
		t.Fatalf("negative type: got %v, want ErrBadJob", err)
	}
	if _, err := s.Submit([]Job{{Type: s.Cluster().J()}}); !errors.Is(err, ErrBadJob) {
		t.Fatalf("out-of-range type: got %v, want ErrBadJob", err)
	}
	// Batches are atomic: a bad tail must not apply the good head.
	if _, err := s.Submit([]Job{{Type: 0, Count: 5}, {Type: 1, Count: -2}}); !errors.Is(err, ErrBadJob) {
		t.Fatalf("negative count: got %v, want ErrBadJob", err)
	}
	for _, n := range s.Pending() {
		if n != 0 {
			t.Fatalf("rejected batch leaked into pending: %v", s.Pending())
		}
	}
	// Zero count means one job; valid batches accumulate.
	accepted, err := s.Submit([]Job{{Type: 0}, {Type: 0, Count: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 5 || s.Pending()[0] != 5 || s.Submitted() != 5 {
		t.Fatalf("accepted=%d pending=%v submitted=%v", accepted, s.Pending(), s.Submitted())
	}
}

func TestSessionTickAdmitsWithArrivalCap(t *testing.T) {
	s, err := NewSession(testConfig(t, core.Config{V: 7.5}))
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cluster()
	amax := c.JobTypes[0].MaxArrival
	if amax <= 0 {
		t.Skip("reference job type 0 has no arrival bound")
	}
	if _, err := s.Submit([]Job{{Type: 0, Count: 2*amax + 3}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slot != 0 || rep.Admitted != amax || rep.Pending != amax+3 {
		t.Fatalf("first tick: %+v, want slot 0 admitting a_max=%d", rep, amax)
	}
	rep, err = s.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != amax || rep.Pending != 3 {
		t.Fatalf("second tick: %+v", rep)
	}
	if s.Slot() != 2 {
		t.Fatalf("slot counter %d after two ticks", s.Slot())
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Tick(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled tick: got %v", err)
	}
}

// TestSessionCheckpointRestore runs 20 slots, checkpoints, restores into a
// fresh session, runs 20 more, and requires the queue trajectory and tick
// reports to match the uninterrupted 40-slot run exactly.
// driveSession replays schedule[from:to] into s, one submit and one tick per
// slot, and returns the tick reports and the post-tick queue trajectory.
func driveSession(t *testing.T, s *Session, schedule [][]Job, from, to int) ([]TickReport, []queue.Lengths) {
	t.Helper()
	var reps []TickReport
	var traj []queue.Lengths
	for slot := from; slot < to; slot++ {
		if _, err := s.Submit(schedule[slot]); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Tick(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, *rep)
		traj = append(traj, s.Lengths())
	}
	return reps, traj
}

func TestSessionCheckpointRestore(t *testing.T) {
	const slots, split = 40, 20
	cfg := core.Config{V: 7.5, Beta: 100, WarmStart: true}
	schedule := arrivalSchedule(slots, 8)

	drive := func(s *Session, from, to int) ([]TickReport, []queue.Lengths) {
		t.Helper()
		return driveSession(t, s, schedule, from, to)
	}

	full, err := NewSession(testConfig(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	wantReps, wantTraj := drive(full, 0, slots)

	first, err := NewSession(testConfig(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	drive(first, 0, split)
	var buf bytes.Buffer
	if err := first.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Keep driving the original past the checkpoint to prove the snapshot
	// is detached from the live session.
	drive(first, split, split+3)

	second, err := NewSession(testConfig(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if second.Slot() != split {
		t.Fatalf("restored at slot %d, want %d", second.Slot(), split)
	}
	gotReps, gotTraj := drive(second, split, slots)
	if !reflect.DeepEqual(gotTraj, wantTraj[split:]) {
		t.Fatal("restored session's queue trajectory diverged from the uninterrupted run")
	}
	if !reflect.DeepEqual(gotReps, wantReps[split:]) {
		t.Fatalf("restored session's tick reports diverged:\n got %+v\nwant %+v", gotReps, wantReps[split:])
	}
	if got, want := second.Submitted(), full.Submitted(); got != want {
		t.Fatalf("lifetime submitted %v, want %v", got, want)
	}
}

// TestSessionRestoresCommittedFixtures pins checkpoint compatibility across
// format changes. Each fixture is the Checkpoint frame an earlier release
// wrote at slot 20 of arrivalSchedule(40, 8) for the config below:
// checkpoint-beta100.snap under the default solver, and
// checkpoint-decomposed-beta100.snap under the ADMM-decomposed solver that
// no longer exists, whose scheduler state also carries two per-account dual
// vectors. gob skips fields SchedulerState no longer declares, so both must
// load; the default one must then continue byte-identically to an
// uninterrupted run.
func TestSessionRestoresCommittedFixtures(t *testing.T) {
	const slots, split = 40, 20
	cfg := core.Config{V: 7.5, Beta: 100, WarmStart: true}
	schedule := arrivalSchedule(slots, 8)

	full, err := NewSession(testConfig(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	wantReps, wantTraj := driveSession(t, full, schedule, 0, slots)

	for _, tc := range []struct {
		file      string
		identical bool
	}{
		{"checkpoint-beta100.snap", true},
		{"checkpoint-decomposed-beta100.snap", false},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSession(testConfig(t, cfg))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Restore(bytes.NewReader(data)); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if s.Slot() != split {
				t.Fatalf("restored at slot %d, want %d", s.Slot(), split)
			}
			gotReps, gotTraj := driveSession(t, s, schedule, split, slots)
			if !tc.identical {
				return
			}
			if !reflect.DeepEqual(gotTraj, wantTraj[split:]) {
				t.Fatal("restored session's queue trajectory diverged from the uninterrupted run")
			}
			if !reflect.DeepEqual(gotReps, wantReps[split:]) {
				t.Fatalf("restored session's tick reports diverged:\n got %+v\nwant %+v", gotReps, wantReps[split:])
			}
		})
	}
}

func TestSessionRestoreRejections(t *testing.T) {
	s, err := NewSession(testConfig(t, core.Config{V: 7.5}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(bytes.NewReader([]byte("junk"))); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("framing junk: got %v, want ErrCorruptSnapshot", err)
	}
	if err := s.RestoreState([]byte("not gob")); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("payload junk: got %v, want ErrCorruptSnapshot", err)
	}

	// A structurally valid payload from a different cluster shape.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(checkpointPayload{N: 99, J: 1, M: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreState(buf.Bytes()); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("wrong shape: got %v, want ErrSnapshotMismatch", err)
	}

	// A rejected restore must leave the session usable at its old state.
	if _, err := s.Tick(context.Background()); err != nil {
		t.Fatalf("session unusable after rejected restore: %v", err)
	}
}

func TestSessionReconfigure(t *testing.T) {
	s, err := NewSession(testConfig(t, core.Config{V: 7.5, Beta: 100, WarmStart: true}))
	if err != nil {
		t.Fatal(err)
	}
	schedule := arrivalSchedule(12, 8)
	ctx := context.Background()
	for slot := 0; slot < 6; slot++ {
		if _, err := s.Submit(schedule[slot]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Same convex shape: warm state carries across the V change.
	cfg := s.Config()
	cfg.V = 20
	if err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if got := s.Config(); got.V != 20 || got.Beta != 100 {
		t.Fatalf("config after reconfigure: %+v", got)
	}
	// Crossing beta to zero drops the convex path entirely; the session
	// must keep ticking on the linear solver.
	cfg.Beta = 0
	if err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	for slot := 6; slot < 12; slot++ {
		if _, err := s.Submit(schedule[slot]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if s.Slot() != 12 {
		t.Fatalf("slot %d after reconfigured run", s.Slot())
	}

	if err := s.Reconfigure(core.Config{V: -1}); err == nil {
		t.Fatal("invalid reconfigure accepted")
	}
	if got := s.Config(); got.V != 20 || got.Beta != 0 {
		t.Fatalf("failed reconfigure mutated config: %+v", got)
	}
}

func TestSessionClose(t *testing.T) {
	s, err := NewSession(testConfig(t, core.Config{V: 7.5}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("tick after close: %v", err)
	}
	if _, err := s.Submit([]Job{{Type: 0}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if _, err := s.EncodeState(); !errors.Is(err, ErrClosed) {
		t.Fatalf("encode after close: %v", err)
	}
}

// FuzzRestoreSnapshot feeds arbitrary bytes to the full restore path (frame
// decode + gob decode + state validation): it must never panic and must fail
// only with the typed sentinels, leaving the session usable.
func FuzzRestoreSnapshot(f *testing.F) {
	seedCfg := func() SessionConfig {
		in, err := sim.NewReferenceInputs(2012, 64)
		if err != nil {
			f.Fatal(err)
		}
		in.Workload = nil
		return SessionConfig{Inputs: in, Scheduler: core.Config{V: 7.5, Beta: 100, WarmStart: true},
			Sim: sim.Options{ValidateActions: true}}
	}

	// Seed with a real checkpoint and mutations of it.
	seed, err := NewSession(seedCfg())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := seed.Submit([]Job{{Type: 0, Count: 5}, {Type: 3, Count: 2}}); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := seed.Tick(context.Background()); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := seed.Checkpoint(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte("GFSNAP\r\n"))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xFF
	f.Add(flipped)

	s, err := NewSession(seedCfg())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		err := s.Restore(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) && !errors.Is(err, ErrSnapshotVersion) &&
				!errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("untyped restore error: %v", err)
			}
		}
		// Whatever happened, the session must still tick.
		if _, err := s.Tick(context.Background()); err != nil {
			t.Fatalf("session broken after restore attempt: %v", err)
		}
	})
}

package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"grefar"
	"grefar/internal/telemetry"
)

// e2eSchedule is the deterministic ingest stream for the end-to-end test:
// the jobs POSTed before each slot's tick.
func e2eSchedule(slots, types int) [][]grefar.Job {
	out := make([][]grefar.Job, slots)
	for s := range out {
		var jobs []grefar.Job
		for typ := 0; typ < types; typ++ {
			if n := (s + 3*typ) % 7; n > 0 {
				jobs = append(jobs, grefar.Job{Type: typ, Count: n})
			}
		}
		out[s] = jobs
	}
	return out
}

func mustPost(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
}

// lengthsJSON marshals a backlog snapshot; the end-to-end comparison is on
// these bytes, so "matches the golden run" means byte-for-byte.
func lengthsJSON(t *testing.T, l grefar.QueueLengths) string {
	t.Helper()
	data, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestServeKillRestartMatchesGolden is the serving-mode acceptance test:
// ingest jobs over HTTP and tick 20 slots, kill the daemon without any
// graceful shutdown, restart it from the snapshot directory, tick 20 more —
// and require the full 40-slot backlog trajectory to match an uninterrupted
// in-process session byte-for-byte, with the invariant checker on throughout.
func TestServeKillRestartMatchesGolden(t *testing.T) {
	const slots, split, types = 40, 20, 8
	schedule := e2eSchedule(slots, types)
	dir := filepath.Join(t.TempDir(), "snaps")
	flags := []string{
		"-seed", "2012", "-horizon", "64", "-v", "7.5", "-beta", "100", "-warm",
		"-check", "-snapshot-dir", dir, "-snapshot-every", "5",
	}

	// Golden: the uninterrupted session, driven through the public API with
	// the exact configuration the daemon builds from these flags.
	in, err := grefar.ReferenceInputs(2012, 64)
	if err != nil {
		t.Fatal(err)
	}
	in.Workload = nil
	golden, err := grefar.Open(
		grefar.WithInputs(in),
		grefar.WithV(7.5), grefar.WithBeta(100), grefar.WithWarmStart(true),
		grefar.WithActionValidation(true), grefar.WithCheck(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, slots)
	for slot := 0; slot < slots; slot++ {
		if _, err := golden.Submit(schedule[slot]); err != nil {
			t.Fatal(err)
		}
		if _, err := golden.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
		want[slot] = lengthsJSON(t, golden.Lengths())
	}

	drive := func(a *app, ts *httptest.Server, from, to int, got []string) {
		t.Helper()
		for slot := from; slot < to; slot++ {
			if jobs := schedule[slot]; len(jobs) > 0 {
				body, err := json.Marshal(jobs)
				if err != nil {
					t.Fatal(err)
				}
				mustPost(t, ts.URL+"/v1/jobs", string(body))
			}
			mustPost(t, ts.URL+"/v1/tick", "")
			got[slot] = lengthsJSON(t, a.Server.Session().Lengths())
		}
	}
	got := make([]string, slots)

	// Phase 1: boot fresh, ingest over HTTP, tick to slot 20. With cadence 5
	// the last durable checkpoint lands exactly at slot 20.
	a1, err := newApp(flags)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Boot != nil {
		t.Fatalf("fresh boot restored %+v", a1.Boot)
	}
	ts1 := httptest.NewServer(a1.Server)
	drive(a1, ts1, 0, split, got)
	ts1.Close()
	// SIGKILL: the process dies here. No graceful checkpoint, no Close — the
	// restart may rely only on what the cadence already made durable.

	// Phase 2: a new process boots from the snapshot directory and resumes.
	a2, err := newApp(flags)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Boot == nil || a2.Boot.Fallback {
		t.Fatalf("restart did not restore cleanly: %+v", a2.Boot)
	}
	if slot := a2.Server.Session().Slot(); slot != split {
		t.Fatalf("restarted at slot %d, want %d", slot, split)
	}
	ts2 := httptest.NewServer(a2.Server)
	defer ts2.Close()
	drive(a2, ts2, split, slots, got)

	for slot := range want {
		if got[slot] != want[slot] {
			t.Fatalf("backlog trajectory diverged at slot %d:\n got %s\nwant %s", slot, got[slot], want[slot])
		}
	}

	// Graceful shutdown writes a final checkpoint at slot 40...
	if err := a2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// ...which the next boot resumes from.
	a3, err := newApp(flags)
	if err != nil {
		t.Fatal(err)
	}
	defer a3.Close()
	if a3.Boot == nil || a3.Server.Session().Slot() != slots {
		t.Fatalf("post-shutdown boot: %+v at slot %d", a3.Boot, a3.Server.Session().Slot())
	}
}

// TestServeFlagValidation exercises the daemon's constructor error paths.
func TestServeFlagValidation(t *testing.T) {
	if _, err := newApp([]string{"-v", "-1"}); err == nil {
		t.Fatal("negative V accepted")
	}
	if _, err := newApp([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestServeStatusAndMetrics smoke-tests the observability surface end to end
// through the daemon's wiring (shared registry, DC-labeled families).
func TestServeStatusAndMetrics(t *testing.T) {
	a, err := newApp([]string{"-horizon", "64", "-snapshot-every", "0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ts := httptest.NewServer(a.Server)
	defer ts.Close()

	mustPost(t, ts.URL+"/v1/jobs", `{"type":0,"count":3}`)
	mustPost(t, ts.URL+"/v1/tick?n=2", "")

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Slot int     `json:"slot"`
		V    float64 `json:"v"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Slot != 2 || status.V != 7.5 {
		t.Fatalf("status: %+v", status)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"grefar_serve_ticks_total 2", "grefar_slot"} {
		if !strings.Contains(string(metrics), fam) {
			t.Fatalf("metrics missing %q", fam)
		}
	}
}

// TestServeDropsTricklingHeaders checks the daemon's read timeout: a client
// that sends its request headers one line at a time, never finishing them,
// is disconnected once telemetry.HTTPReadHeaderTimeout has passed instead
// of holding a connection open for as long as it keeps trickling.
func TestServeDropsTricklingHeaders(t *testing.T) {
	t.Parallel()
	a, err := newApp([]string{"-horizon", "16", "-snapshot-every", "0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := a.serveHTTP(lis)
	defer srv.Close()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /v1/status HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	limit := 3 * telemetry.HTTPReadHeaderTimeout
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := io.WriteString(conn, "X-Trickle: 1\r\n"); err != nil {
					return
				}
			}
		}
	}()
	_ = conn.SetReadDeadline(start.Add(limit))
	n, err := conn.Read(make([]byte, 512))
	elapsed := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v of trickled headers", elapsed)
	}
	if err == nil {
		t.Fatalf("server answered an unfinished request after %v (%d bytes)", elapsed, n)
	}
	if elapsed < telemetry.HTTPReadHeaderTimeout/2 {
		t.Fatalf("connection dropped after %v, before the header timeout %v", elapsed, telemetry.HTTPReadHeaderTimeout)
	}
}

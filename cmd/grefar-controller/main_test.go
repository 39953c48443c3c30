package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"grefar/internal/agent"
	"grefar/internal/availability"
	"grefar/internal/model"
	"grefar/internal/price"
)

// startAgents spins up the three reference agents exactly as the
// grefar-agent binary would, returning their addresses.
func startAgents(t *testing.T, seed int64, slots int) string {
	t.Helper()
	c := model.NewReferenceCluster()
	prices, err := price.NewReferenceSources(seed, slots)
	if err != nil {
		t.Fatal(err)
	}
	avail, err := availability.NewReferenceAvailability(seed+2, c, slots)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, c.N())
	for i := 0; i < c.N(); i++ {
		a, err := agent.New(agent.Config{
			Cluster:      c,
			DataCenter:   i,
			Price:        prices[i],
			Availability: avail,
		})
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := a.Serve(lis)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return strings.Join(addrs, ",")
}

func TestControllerMainEndToEnd(t *testing.T) {
	agents := startAgents(t, 2012, 256)
	err := run(context.Background(), []string{
		"-agents", agents,
		"-slots", "96",
		"-V", "7.5",
		"-beta", "0",
		"-seed", "2012",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestControllerMainAlwaysPolicy(t *testing.T) {
	agents := startAgents(t, 7, 128)
	if err := run(context.Background(), []string{"-agents", agents, "-slots", "48", "-policy", "always", "-seed", "7", "-failure-policy", "strict"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestControllerMainValidation(t *testing.T) {
	bg := context.Background()
	if err := run(bg, []string{"-agents", ""}, io.Discard); err == nil {
		t.Error("missing agents accepted")
	}
	if err := run(bg, []string{"-agents", "a,b"}, io.Discard); err == nil {
		t.Error("wrong agent count accepted")
	}
	if err := run(bg, []string{"-agents", "127.0.0.1:1,127.0.0.1:1,127.0.0.1:1", "-timeout", "200ms"}, io.Discard); err == nil {
		t.Error("unreachable agents accepted")
	}
	agents := startAgents(t, 7, 64)
	if err := run(bg, []string{"-agents", agents, "-policy", "nope"}, io.Discard); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run(bg, []string{"-agents", agents, "-failure-policy", "nope"}, io.Discard); err == nil {
		t.Error("unknown failure policy accepted")
	}
	if err := run(bg, []string{"-not-a-flag"}, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestControllerMainRejectsBadPartitions pins the -partitions range: a
// count outside [1, number of agents] is a flag error, reported before any
// agent is dialed, never a silent fallback to one partition.
func TestControllerMainRejectsBadPartitions(t *testing.T) {
	agents := startAgents(t, 7, 64)
	for _, p := range []string{"0", "-1", "4"} {
		err := run(context.Background(), []string{"-agents", agents, "-slots", "4", "-partitions", p}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-partitions") {
			t.Errorf("-partitions %s: err = %v, want a -partitions range error", p, err)
		}
	}
	for _, p := range []string{"1", "3"} {
		if err := run(context.Background(), []string{"-agents", agents, "-slots", "4", "-partitions", p}, io.Discard); err != nil {
			t.Errorf("-partitions %s: %v", p, err)
		}
	}
}

func TestControllerMainCanceledContext(t *testing.T) {
	agents := startAgents(t, 7, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-agents", agents, "-slots", "32", "-seed", "7"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("got %v, want cancellation error", err)
	}
}

// TestControllerMetricsEndpoint runs a short distributed loop and scrapes the
// controller's mux exactly as Prometheus would, asserting the grefar_ series
// the ISSUE promises: queue backlog, per-DC energy, and solver iterations.
func TestControllerMetricsEndpoint(t *testing.T) {
	agents := startAgents(t, 2012, 64)
	a, err := buildApp([]string{
		"-agents", agents,
		"-slots", "3",
		"-V", "7.5",
		"-beta", "100",
		"-seed", "2012",
		"-pprof",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.runLoop(context.Background(), io.Discard); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(a.Metrics)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		`grefar_slots_total{origin="controller"} 3`,
		`grefar_slots_total{origin="decide"} 3`,
		`grefar_queue_backlog{`,
		`grefar_dc_energy_cost_total{dc="dc1"}`,
		`grefar_dc_energy_cost_total{dc="dc3"}`,
		`grefar_solver_iterations_count{solver="frank-wolfe"} 3`,
		`grefar_drift`,
		`grefar_penalty`,
		`grefar_controller_agent_health{dc="0"} 0`,
		`grefar_controller_degraded_slots_total 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d with -pprof, want 200", code)
	}
}

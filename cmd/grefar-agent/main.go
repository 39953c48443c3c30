// Command grefar-agent runs one data-center agent of the distributed GreFar
// deployment: it serves the site's state (availability, electricity price,
// local queues) to the controller and executes the allocations it receives.
// With -metrics-addr it also exposes Prometheus-format telemetry (/metrics),
// a liveness probe (/healthz), and, behind -pprof, the standard profiling
// endpoints.
//
// Usage:
//
//	grefar-agent -dc 0 -listen 127.0.0.1:7001 [-seed 2012] [-slots 4096] \
//	             [-metrics-addr 127.0.0.1:9091] [-pprof]
//
// The agent simulates its local environment (prices and availability) from
// the reference processes; -dc selects which site of the reference cluster
// it embodies, and the seed must match the controller's so every node sees
// the same world. SIGINT or SIGTERM shuts the agent down.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"grefar/internal/agent"
	"grefar/internal/availability"
	"grefar/internal/model"
	"grefar/internal/price"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "grefar-agent:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	a, err := serve(args)
	if err != nil {
		return err
	}
	defer a.Close()
	fmt.Printf("grefar-agent: serving data center %s on %s\n", a.Name, a.Server.Addr())

	if a.metricsAddr != "" {
		lis, err := net.Listen("tcp", a.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		srv := telemetry.NewHTTPServer(a.Metrics)
		go func() { _ = srv.Serve(lis) }()
		defer srv.Close()
		fmt.Printf("grefar-agent: metrics on http://%s/metrics\n", lis.Addr())
	}

	<-ctx.Done()
	fmt.Println("grefar-agent: shutting down")
	return nil
}

// agentApp is a started agent: the RPC server executing allocations plus the
// observability mux fed by its per-slot events. Tests mount Metrics on an
// httptest server instead of a real listener.
type agentApp struct {
	// Server answers the controller's RPCs.
	Server *transport.Server
	// Name is the served data center's name (e.g. "dc2").
	Name string
	// Metrics serves /metrics, /healthz, and optionally /debug/pprof/.
	Metrics http.Handler

	metricsAddr string
}

// Close stops the RPC server.
func (a *agentApp) Close() error { return a.Server.Close() }

// serve parses flags, builds the agent with its telemetry observer, and
// starts its RPC server; run blocks on signals afterwards, and tests drive
// the returned app directly.
func serve(args []string) (*agentApp, error) {
	fs := flag.NewFlagSet("grefar-agent", flag.ContinueOnError)
	dc := fs.Int("dc", 0, "data center index this agent serves")
	listen := fs.String("listen", "127.0.0.1:0", "address to listen on")
	seed := fs.Int64("seed", 2012, "environment seed (must match the controller)")
	slots := fs.Int("slots", 4096, "length of the materialized local environment")
	metricsAddr := fs.String("metrics-addr", "", "address to serve /metrics and /healthz on (empty disables)")
	pprofOn := fs.Bool("pprof", false, "also mount /debug/pprof/ on the metrics address")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	c := model.NewReferenceCluster()
	prices, err := price.NewReferenceSources(*seed, *slots)
	if err != nil {
		return nil, fmt.Errorf("prices: %w", err)
	}
	if *dc < 0 || *dc >= len(prices) {
		return nil, fmt.Errorf("data center %d out of range [0,%d)", *dc, len(prices))
	}
	avail, err := availability.NewReferenceAvailability(*seed+2, c, *slots)
	if err != nil {
		return nil, fmt.Errorf("availability: %w", err)
	}

	reg := telemetry.NewRegistry()
	obs := telemetry.NewRegistryObserver(reg)
	names := make([]string, c.N())
	for i, d := range c.DataCenters {
		names[i] = d.Name
	}
	obs.SetDCNames(names)

	a, err := agent.New(agent.Config{
		Cluster:      c,
		DataCenter:   *dc,
		Price:        prices[*dc],
		Availability: avail,
		Observer:     obs,
	})
	if err != nil {
		return nil, err
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		return nil, err
	}
	return &agentApp{
		Server:      a.Serve(lis),
		Name:        c.DataCenters[*dc].Name,
		Metrics:     telemetry.NewMux(reg, telemetry.MuxOptions{EnablePprof: *pprofOn}),
		metricsAddr: *metricsAddr,
	}, nil
}

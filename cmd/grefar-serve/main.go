// Command grefar-serve runs GreFar as a long-lived scheduling service: jobs
// arrive over HTTP (single objects, arrays, or JSONL batches), slots execute
// on a wall-clock cadence or on demand (POST /v1/tick), the V/beta/tariff
// knobs hot-reload at slot boundaries (POST /v1/reconfigure), and the whole
// session state — queues with their arrival slots, the solver's warm-start
// iterate, the pending ingest buffer — survives restarts through durable
// checkpoints.
//
// Usage:
//
//	grefar-serve -listen 127.0.0.1:8080 -snapshot-dir /var/lib/grefar \
//	             [-seed 2012] [-v 7.5] [-beta 100] [-warm] [-check] \
//	             [-snapshot-every 20] [-tick 1s] [-pprof]
//
// With -snapshot-dir the daemon restores the newest intact snapshot at boot
// (falling back to the previous generation if the current one is torn),
// checkpoints every -snapshot-every served slots, and writes a final
// checkpoint on SIGINT/SIGTERM. With -tick 0 (the default) slots execute
// only via POST /v1/tick, which is the deterministic mode: drive it from a
// cron or an upstream admission controller.
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
	"time"

	"grefar"
	"grefar/internal/serve"
	"grefar/internal/serve/snapshot"
	"grefar/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "grefar-serve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	a, err := newApp(args)
	if err != nil {
		return err
	}
	defer a.Close()
	if a.Boot != nil {
		msg := "restored"
		if a.Boot.Fallback {
			msg = "restored from fallback generation (current snapshot was rejected)"
		}
		fmt.Printf("grefar-serve: %s %s at slot %d\n", msg, a.Boot.Path, a.Server.Session().Slot())
	}

	lis, err := net.Listen("tcp", a.listen)
	if err != nil {
		return err
	}
	srv := a.serveHTTP(lis)
	defer srv.Close()
	fmt.Printf("grefar-serve: serving on http://%s (slot %d)\n", lis.Addr(), a.Server.Session().Slot())

	if a.tickEvery > 0 {
		go a.tickLoop(ctx)
	}

	<-ctx.Done()
	fmt.Println("grefar-serve: shutting down")
	return a.Shutdown()
}

// app is a built daemon: the HTTP server fronting the session, plus what run
// needs to serve and shut it down. Tests construct one with newApp and mount
// a.Server on an httptest server instead of a real listener.
type app struct {
	// Server handles every endpoint; it is the daemon's http.Handler.
	Server *serve.Server
	// Boot describes the snapshot restored at construction; nil on a fresh
	// start (or without -snapshot-dir).
	Boot *snapshot.LoadResult

	listen    string
	tickEvery time.Duration
	hasStore  bool
}

// serveHTTP serves the daemon's endpoints on lis in the background, with the
// shared read and idle timeouts.
func (a *app) serveHTTP(lis net.Listener) *http.Server {
	srv := telemetry.NewHTTPServer(a.Server)
	go func() { _ = srv.Serve(lis) }()
	return srv
}

// tickLoop executes one slot per -tick interval until the context ends.
// Failed slots are logged and retried next interval: a transient checkpoint
// failure must not kill the control loop.
func (a *app) tickLoop(ctx context.Context) {
	t := time.NewTicker(a.tickEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := a.Server.Tick(ctx); err != nil && ctx.Err() == nil {
				fmt.Fprintln(os.Stderr, "grefar-serve: tick:", err)
			}
		}
	}
}

// Shutdown writes the graceful-exit checkpoint (when a store is configured)
// and closes the session.
func (a *app) Shutdown() error {
	var err error
	if a.hasStore {
		if err = a.Server.Checkpoint(); err == nil {
			fmt.Printf("grefar-serve: final checkpoint at slot %d\n", a.Server.Session().Slot())
		}
	}
	if cerr := a.Server.Session().Close(); err == nil {
		err = cerr
	}
	return err
}

// Close releases the app without a graceful checkpoint (the error path).
func (a *app) Close() error { return a.Server.Session().Close() }

// newApp parses flags and assembles the session, snapshot store, and HTTP
// server, restoring the newest snapshot when one exists.
func newApp(args []string) (*app, error) {
	fs := flag.NewFlagSet("grefar-serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "address to listen on")
	seed := fs.Int64("seed", 2012, "environment seed (prices and availability)")
	horizon := fs.Int("horizon", 4096, "length of the materialized environment (slots wrap past it)")
	v := fs.Float64("v", 7.5, "cost-delay parameter V")
	beta := fs.Float64("beta", 100, "energy-fairness parameter beta")
	warm := fs.Bool("warm", false, "warm-start the convex slot solve from the previous slot")
	away := fs.Bool("away", false, "use away-step Frank-Wolfe for the convex slot solve")
	check := fs.Bool("check", false, "re-verify every slot against the paper's queue dynamics")
	snapDir := fs.String("snapshot-dir", "", "directory for durable checkpoints (empty disables)")
	snapEvery := fs.Int("snapshot-every", 20, "checkpoint automatically every n served slots (0 disables)")
	tick := fs.Duration("tick", 0, "wall-clock slot length (0 = slots execute only via POST /v1/tick)")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/ on the handler")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	in, err := grefar.ReferenceInputs(*seed, *horizon)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	// Serving mode: every arrival comes through the ingest endpoints.
	in.Workload = nil

	reg := grefar.NewRegistry()
	s, err := grefar.Open(
		grefar.WithInputs(in),
		grefar.WithV(*v), grefar.WithBeta(*beta),
		grefar.WithWarmStart(*warm), grefar.WithAwaySteps(*away),
		grefar.WithActionValidation(true), grefar.WithCheck(*check),
		grefar.WithTelemetry(reg),
	)
	if err != nil {
		return nil, err
	}

	var store *snapshot.Store
	if *snapDir != "" {
		store, err = snapshot.NewStore(*snapDir)
		if err != nil {
			return nil, fmt.Errorf("snapshot store: %w", err)
		}
	}

	sv, err := serve.NewServer(serve.ServerConfig{
		Session:       s,
		Store:         store,
		SnapshotEvery: *snapEvery,
		Registry:      reg,
		EnablePprof:   *pprofOn,
	})
	if err != nil {
		return nil, err
	}
	boot, err := sv.RestoreOnBoot()
	if err != nil {
		return nil, err
	}
	return &app{
		Server:    sv,
		Boot:      boot,
		listen:    *listen,
		tickEvery: *tick,
		hasStore:  store != nil,
	}, nil
}

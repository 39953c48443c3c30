package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"grefar"
	"grefar/internal/availability"
	"grefar/internal/experiments"
	"grefar/internal/model"
	"grefar/internal/price"
	"grefar/internal/serve"
	"grefar/internal/serve/snapshot"
	"grefar/internal/telemetry"
)

// Serving shape: a 200-site, 100-job-type cluster from the solver-scale
// instance, fronted by the grefar-serve handler.
const (
	serveSites = 200
	serveTypes = 100
	// serveDensity is the share of sites each job type is eligible at (and
	// the instance's backlog density; the session itself starts empty).
	serveDensity = 0.1
	// serveSnapEvery is grefar-serve's default -snapshot-every.
	serveSnapEvery = 20
	// serveJobsPerSlot is the mean arrival rate, about 12% of the cluster's
	// service capacity. At this rate the O(V) backlog settles within the
	// warm-up and then stays level.
	serveJobsPerSlot = 150.0
)

// serveLarge drives serve.Server.ServeHTTP in-process: each slot posts its
// seeded JSONL batch to /v1/jobs/batch and then calls /v1/tick, and the server
// checkpoints to its snapshot store every serveSnapEvery ticks.
type serveLarge struct {
	seed int64
	c    *model.Cluster
	sess *serve.Session
	sv   *serve.Server
	reg  *telemetry.Registry
	dir  string
	q    *qualityLog
	tr   *tracer

	ticks                int // ticks served since the server started
	submitted, completed float64
	body                 bytes.Buffer

	// Traced run: time after the sim event on checkpoint and plain ticks.
	postCk, postPlain [2]float64 // summed ns, count
	selfNS            [2]float64 // tick minus decide: summed ns, count
}

func buildServe(env buildEnv) (system, error) {
	inst, err := experiments.NewSolverScaleInstance(env.seed, serveSites, serveTypes, serveDensity)
	if err != nil {
		return nil, err
	}
	c := inst.Cluster
	// The instance makes every type eligible everywhere. Spread thinly over
	// all 20000 (site, type) pairs, the O(V) backlog takes thousands of slots
	// to fill; a job type's data lives at a few sites, so each type is
	// eligible at a striped serveDensity share of them (20 sites).
	stride := int(math.Round(1 / serveDensity))
	for j := range c.JobTypes {
		var el []int
		for i := 0; i < c.N(); i++ {
			if (7*i+13*j)%stride == 0 {
				el = append(el, i)
			}
		}
		c.JobTypes[j].Eligible = el
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	prices := make([]price.Source, c.N())
	for i := range prices {
		prices[i] = price.Constant(inst.State.Price[i])
	}
	in := grefar.SimInputs{
		Cluster:      c,
		Prices:       prices,
		Availability: &availability.Static{Avail: inst.State.Avail},
	}
	s := &serveLarge{seed: env.seed, c: c, reg: telemetry.NewRegistry(), dir: env.dir, q: env.q, tr: env.tr}
	obs := []telemetry.SlotObserver{s.q, telemetry.ObserverFunc(s.observe)}
	if env.tr != nil {
		obs = append(obs, env.tr)
	}
	// Wired as grefar-serve wires its session.
	s.sess, err = grefar.Open(
		grefar.WithInputs(in),
		grefar.WithV(benchV), grefar.WithBeta(benchBeta),
		grefar.WithActionValidation(true), grefar.WithCheck(env.check),
		grefar.WithTelemetry(s.reg),
		grefar.WithObserver(telemetry.Multi(obs...)),
	)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(env.dir); err != nil {
		s.sess.Close()
		return nil, err
	}
	store, err := snapshot.NewStore(env.dir)
	if err != nil {
		s.sess.Close()
		return nil, err
	}
	s.sv, err = serve.NewServer(serve.ServerConfig{
		Session:       s.sess,
		Store:         store,
		SnapshotEvery: serveSnapEvery,
		Registry:      s.reg,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// observe counts the jobs each applied slot completed.
func (s *serveLarge) observe(ev telemetry.SlotEvent) {
	if ev.Origin == telemetry.OriginSim {
		s.completed += ev.Processed
	}
}

// batch writes slot t's JSONL arrival batch into s.body and returns the job
// count. Counts are Poisson with a per-type rate; the stream is a pure
// function of (seed, t).
func (s *serveLarge) batch(t int) int {
	s.body.Reset()
	rng := splitmix(uint64(s.seed)*0x9e3779b97f4a7c15 ^ uint64(t))
	total := 0
	for j := 0; j < serveTypes; j++ {
		// Types differ in popularity: weights 1..5, normalised.
		lambda := serveJobsPerSlot * float64(1+j%5) / (3 * serveTypes)
		n := poisson(&rng, lambda)
		if n == 0 {
			continue
		}
		total += n
		s.body.WriteString(`{"type":`)
		s.body.WriteString(strconv.Itoa(j))
		s.body.WriteString(`,"count":`)
		s.body.WriteString(strconv.Itoa(n))
		s.body.WriteString("}\n")
	}
	return total
}

func (s *serveLarge) openWindow() error {
	s.postCk, s.postPlain, s.selfNS = [2]float64{}, [2]float64{}, [2]float64{}
	return nil
}

func (s *serveLarge) slot(t int) (slotTimes, error) {
	var st slotTimes
	jobs := s.batch(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs/batch", bytes.NewReader(s.body.Bytes()))
	rec := httptest.NewRecorder()
	var sub0 int64
	if s.tr != nil {
		sub0 = s.tr.now()
	}
	start := time.Now()
	s.sv.ServeHTTP(rec, req)
	st.submit = time.Since(start)
	if s.tr != nil {
		s.tr.recordUnder(-1, spanSubmit, sub0, s.tr.now())
	}
	switch rec.Code {
	case http.StatusAccepted:
		s.submitted += float64(jobs)
	case http.StatusBadRequest:
		st.rejected++
	default:
		return st, fmt.Errorf("submit: HTTP %d: %s", rec.Code, rec.Body.String())
	}

	if s.tr != nil {
		s.tr.observeActive(s.c, s.sess.Lengths())
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/tick", nil)
	rec = httptest.NewRecorder()
	var id int32
	if s.tr != nil {
		id = s.tr.beginTick(t)
	}
	sw := startWatch()
	s.sv.ServeHTTP(rec, req)
	st.tick, st.tickCPU = sw.elapsed()
	s.ticks++
	if s.tr != nil {
		s.traceTick(id)
	}
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("tick: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	return st, nil
}

// traceTick splits a tick span at its decide and sim events: decide runs
// from the tick's start to the decide event (admission and state assembly
// included), apply from there to the sim event (queue update, checks,
// observers), and the rest is the server's own work after the slot (gauges,
// the checkpoint on every serveSnapEvery-th tick, the response).
func (s *serveLarge) traceTick(id int32) {
	start, end := s.tr.endTick(id)
	dec, sim := s.tr.lastDecide.Load(), s.tr.lastSim.Load()
	if dec < start || sim < dec || sim > end {
		return // a failed tick; the caller reports it
	}
	s.tr.recordUnder(id, spanDecide, start, dec)
	s.tr.recordUnder(id, spanApply, dec, sim)
	s.tr.recordUnder(id, spanPost, sim, end)
	post := &s.postPlain
	if s.ticks%serveSnapEvery == 0 {
		post = &s.postCk
	}
	post[0] += float64(end - sim)
	post[1]++
	s.selfNS[0] += float64(end - dec)
	s.selfNS[1]++
}

func (s *serveLarge) ledger() (ledger, error) {
	l := ledger{submitted: s.submitted, completed: s.completed, queued: s.sess.Lengths().Sum()}
	for _, n := range s.sess.Pending() {
		l.pending += float64(n)
	}
	if got := s.sess.Submitted(); got != s.submitted {
		return l, fmt.Errorf("session counts %v submitted jobs, the driver sent %v", got, s.submitted)
	}
	return l, nil
}

func (s *serveLarge) checkErr() error { return nil } // a violation fails the tick

func (s *serveLarge) layers(w *window, ms *metricSet) error {
	if s.selfNS[1] == 0 {
		return errors.New("no traced tick was split at its decide event")
	}
	ms.set("serve.tick_self_ms_mean", s.selfNS[0]/s.selfNS[1]/1e6)
	if s.postCk[1] > 0 && s.postPlain[1] > 0 {
		ms.set("serve.checkpoint_ms_mean", (s.postCk[0]/s.postCk[1]-s.postPlain[0]/s.postPlain[1])/1e6)
	}
	b, _, err := registryStat(s.reg, "grefar_serve_snapshot_bytes")
	if err != nil {
		return err
	}
	ms.set("serve.checkpoint_bytes", b)
	return nil
}

func (s *serveLarge) close() error {
	err := s.sess.Close()
	return errors.Join(err, os.RemoveAll(s.dir))
}

// splitmix is a splitmix64 generator: small, seedable per slot, and
// allocation-free.
type splitmix uint64

func (r *splitmix) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// poisson draws a Poisson variate by Knuth's product method (small means).
func poisson(r *splitmix, lambda float64) int {
	limit := math.Exp(-lambda)
	n, p := 0, r.float()
	for p > limit {
		n++
		p *= r.float()
	}
	return n
}

package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"grefar/internal/controller"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/sched"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

// Span names. A tick span is the root of one slot; every other span recorded
// while it is open takes it as parent.
const (
	spanTick        = "tick"
	spanSubmit      = "serve.submit"
	spanDecide      = "core.decide"
	spanCallState   = "transport.call.state"
	spanCallAlloc   = "transport.call.allocate"
	spanCallPing    = "transport.call.ping"
	spanCallOther   = "transport.call.other"
	spanHandleState = "agent.handle.state"
	spanHandleAlloc = "agent.handle.allocate"
	spanHandleOther = "agent.handle.other"
	spanApply       = "serve.apply"
	spanPost        = "serve.post"
)

// span is one timed interval: times are nanoseconds since the tracer's
// epoch, parent is the index of the enclosing tick span (-1 for roots).
type span struct {
	name       string
	start, end int64
	parent     int32
	slot       int32
}

// tracer keeps spans in memory and writes them out when the run ends. It
// times calls into the program from outside: a scheduler wrapper, agent
// connection wrappers, an agent handler wrapper, and slot observers.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// decide-event statistics (origin "decide" observer).
	iters, decideEvents int64
	// active-pair shares seen by the scheduler wrapper.
	activeShare float64
	activeN     int64

	open atomic.Int32 // index of the open tick span, -1 when none
	slot atomic.Int32

	// lastDecide and lastSim are the times of the latest origin "decide"
	// and origin "sim" events.
	lastDecide, lastSim atomic.Int64

	goroutinesPeak int
}

func newTracer() *tracer {
	tr := &tracer{epoch: time.Now()}
	tr.open.Store(-1)
	return tr
}

// reset drops every span and event statistic recorded so far.
func (tr *tracer) reset() {
	tr.mu.Lock()
	tr.spans = tr.spans[:0]
	tr.iters, tr.decideEvents = 0, 0
	tr.activeShare, tr.activeN = 0, 0
	tr.mu.Unlock()
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

func (tr *tracer) len() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.spans)
}

// beginTick opens the tick span of slot t.
func (tr *tracer) beginTick(t int) int32 {
	tr.mu.Lock()
	id := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{name: spanTick, start: tr.now(), parent: -1, slot: int32(t)})
	tr.mu.Unlock()
	tr.slot.Store(int32(t))
	tr.open.Store(id)
	return id
}

// endTick closes the tick span and returns its start and end.
func (tr *tracer) endTick(id int32) (start, end int64) {
	end = tr.now()
	tr.open.Store(-1)
	tr.mu.Lock()
	tr.spans[id].end = end
	start = tr.spans[id].start
	tr.mu.Unlock()
	return start, end
}

// record adds a span under the open tick span.
func (tr *tracer) record(name string, start, end int64) {
	tr.recordUnder(tr.open.Load(), name, start, end)
}

func (tr *tracer) recordUnder(parent int32, name string, start, end int64) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{name: name, start: start, end: end, parent: parent, slot: tr.slot.Load()})
	tr.mu.Unlock()
}

// ObserveSlot timestamps slot events: origin "decide" marks the end of a
// decision and carries the solver's iteration count, origin "sim" marks the
// end of a slot's queue update.
func (tr *tracer) ObserveSlot(ev telemetry.SlotEvent) {
	switch ev.Origin {
	case telemetry.OriginDecide:
		tr.lastDecide.Store(tr.now())
		if ev.Solve != nil {
			tr.mu.Lock()
			tr.iters += int64(ev.Solve.Iterations)
			tr.decideEvents++
			tr.mu.Unlock()
		}
	case telemetry.OriginSim:
		tr.lastSim.Store(tr.now())
	}
}

// observeActive records the share of eligible (site, job type) pairs with a
// positive local backlog: the input property the sparse solvers exploit.
func (tr *tracer) observeActive(c *model.Cluster, q queue.Lengths) {
	var active, eligible int
	for j, jt := range c.JobTypes {
		for _, i := range jt.Eligible {
			eligible++
			if q.Local[i][j] > 0 {
				active++
			}
		}
	}
	if eligible == 0 {
		return
	}
	tr.mu.Lock()
	tr.activeShare += float64(active) / float64(eligible)
	tr.activeN++
	tr.mu.Unlock()
}

// tracedScheduler times Decide.
type tracedScheduler struct {
	tr    *tracer
	c     *model.Cluster
	inner sched.Scheduler
}

func (s tracedScheduler) Name() string { return s.inner.Name() }

func (s tracedScheduler) Decide(t int, st *model.State, q queue.Lengths) (*model.Action, error) {
	s.tr.observeActive(s.c, q)
	start := s.tr.now()
	act, err := s.inner.Decide(t, st, q)
	s.tr.record(spanDecide, start, s.tr.now())
	return act, err
}

// tracedConn times agent RPCs. It implements ContextAgentConn so the
// controller keeps its CallContext path.
type tracedConn struct {
	tr    *tracer
	inner controller.ContextAgentConn
}

var _ controller.ContextAgentConn = tracedConn{}

func callSpan(kind string) string {
	switch kind {
	case transport.KindState:
		return spanCallState
	case transport.KindAllocate:
		return spanCallAlloc
	case transport.KindPing:
		return spanCallPing
	}
	return spanCallOther
}

func (c tracedConn) Call(kind string, req, resp any) error {
	start := c.tr.now()
	err := c.inner.Call(kind, req, resp)
	c.tr.record(callSpan(kind), start, c.tr.now())
	return err
}

func (c tracedConn) CallContext(ctx context.Context, kind string, req, resp any) error {
	start := c.tr.now()
	err := c.inner.CallContext(ctx, kind, req, resp)
	c.tr.record(callSpan(kind), start, c.tr.now())
	return err
}

// handler times an agent's request handler on the server side.
func (tr *tracer) handler(h transport.Handler) transport.Handler {
	return func(kind string, body []byte) (any, error) {
		start := tr.now()
		resp, err := h(kind, body)
		name := spanHandleOther
		switch kind {
		case transport.KindState:
			name = spanHandleState
		case transport.KindAllocate:
			name = spanHandleAlloc
		}
		tr.record(name, start, tr.now())
		return resp, err
	}
}

// tickBreakdown is the per-tick sum of each span class's covered time
// (intervals of one class merged, so concurrent calls count once).
type tickBreakdown struct {
	ticks      int
	tickNS     int64
	classNS    map[string]int64 // union per span name, summed over ticks
	coveredNS  int64            // union of every child span except agent handlers
	firstChild int64            // summed time from tick start to the first decide
	afterLast  int64            // summed time from the last decide to tick end
	count      map[string]int64 // spans per name
	durNS      map[string]int64 // summed span durations per name
}

// breakdown groups the spans by tick and measures each class's covered
// time within its tick.
func (tr *tracer) breakdown() tickBreakdown {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b := tickBreakdown{classNS: map[string]int64{}, count: map[string]int64{}, durNS: map[string]int64{}}
	children := make(map[int32][]span)
	for _, s := range tr.spans {
		b.count[s.name]++
		b.durNS[s.name] += s.end - s.start
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for id, s := range tr.spans {
		if s.name != spanTick {
			continue
		}
		b.ticks++
		b.tickNS += s.end - s.start
		byName := map[string][][2]int64{}
		var covered [][2]int64
		first, last := s.end, s.start
		for _, c := range children[int32(id)] {
			iv := [2]int64{max(c.start, s.start), min(c.end, s.end)}
			if iv[1] <= iv[0] {
				continue
			}
			byName[c.name] = append(byName[c.name], iv)
			if !strings.HasPrefix(c.name, "agent.") {
				covered = append(covered, iv)
			}
			if c.name == spanDecide {
				first = min(first, iv[0])
				last = max(last, iv[1])
			}
		}
		for name, ivs := range byName {
			b.classNS[name] += union(ivs)
		}
		b.coveredNS += union(covered)
		if first <= last {
			b.firstChild += first - s.start
			b.afterLast += s.end - last
		}
	}
	return b
}

// union returns the total length covered by the intervals.
func union(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curS, curE int64
	for k, iv := range ivs {
		if k == 0 || iv[0] > curE {
			total += curE - curS
			curS, curE = iv[0], iv[1]
			continue
		}
		curE = max(curE, iv[1])
	}
	return total + curE - curS
}

// meanMS returns the mean duration of the named spans in milliseconds.
func (b tickBreakdown) meanMS(name string) float64 {
	if b.count[name] == 0 {
		return 0
	}
	return float64(b.durNS[name]) / float64(b.count[name]) / 1e6
}

// perTickMS returns a class's covered time per tick in milliseconds.
func (b tickBreakdown) perTickMS(name string) float64 {
	return float64(b.classNS[name]) / float64(b.ticks) / 1e6
}

// commonLayers sets the per-layer metrics every workload measures the same
// way: the decide layer, span coverage and the goroutine peak.
func (tr *tracer) commonLayers(w *window, ms *metricSet) error {
	b := tr.breakdown()
	if b.ticks != w.slots {
		return fmt.Errorf("trace has %d tick spans for %d slots", b.ticks, w.slots)
	}
	ms.set("core.decide_ms_mean", b.meanMS(spanDecide))
	ms.set("core.decide_share", float64(b.classNS[spanDecide])/float64(b.tickNS))
	ms.set("core.decide_calls_per_slot", float64(b.count[spanDecide])/float64(b.ticks))
	tr.mu.Lock()
	if tr.decideEvents > 0 {
		ms.set("core.fw_iters_mean", float64(tr.iters)/float64(tr.decideEvents))
	}
	if tr.activeN > 0 {
		ms.set("core.active_pair_share", tr.activeShare/float64(tr.activeN))
	}
	tr.mu.Unlock()
	ms.set("trace.covered_share", float64(b.coveredNS)/float64(b.tickNS))
	ms.set("runtime.goroutines_peak", float64(tr.goroutinesPeak))
	return nil
}

// dump writes every span as one tab-separated line: name, start and end in
// nanoseconds since the run's epoch, parent index, slot.
func (tr *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	tr.mu.Lock()
	buf := make([]byte, 0, 96)
	for _, s := range tr.spans {
		buf = append(buf[:0], s.name...)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(s.slot), 10)
		buf = append(buf, '\n')
		bw.Write(buf)
	}
	tr.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sampleGoroutines polls the goroutine count every millisecond until the
// returned stop function is called; stop waits for the poller to exit and
// returns the peak.
func sampleGoroutines() (stop func() int) {
	done := make(chan struct{})
	peak := make(chan int)
	go func() {
		s := []metrics.Sample{{Name: "/sched/goroutines:goroutines"}}
		best := 0
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			best = max(best, int(s[0].Value.Uint64()))
			select {
			case <-done:
				peak <- best
				return
			case <-tick.C:
			}
		}
	}()
	return func() int {
		close(done)
		return <-peak
	}
}

// registryStat returns the summed _sum and _count of a histogram family
// across its label children, read from the registry's exposition.
func registryStat(reg *telemetry.Registry, family string) (sum, count float64, err error) {
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		name, rest, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
			if j := strings.LastIndexByte(line, ' '); j >= 0 {
				rest = line[j+1:]
			}
		}
		v, perr := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if perr != nil {
			continue
		}
		switch name {
		case family + "_sum":
			sum += v
		case family + "_count":
			count += v
		case family:
			sum += v // a gauge or counter: its value
		}
	}
	return sum, count, nil
}

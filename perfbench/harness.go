package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"grefar/internal/telemetry"
)

// setupRepeats is how many times a run builds and warms its system; setup_s
// is the median. The last build is the one the timed window measures.
const setupRepeats = 5

// spec describes one workload.
type spec struct {
	name string
	// warmup slots run before timing; their cost is part of setup_s.
	warmup int
	// quality is the length of the fixed window, starting at the first timed
	// slot, over which the quality metrics are averaged. A fixed slot count
	// keeps them independent of machine speed. It is also the least number of
	// timed slots.
	quality int
	// chunk is the sub-window length in slots (see window); at most quality,
	// and at least 100 so a sub-window's p90 keeps ten samples beyond it.
	chunk int
	// checkSlots is how many slots after the warm-up the check pass runs; on
	// a deterministic workload it covers the quality window.
	checkSlots int
	// deterministic workloads must reproduce the check pass's quality window
	// exactly.
	deterministic bool
	build         func(env buildEnv) (system, error)
}

// buildEnv is what a workload builder needs besides its seed.
type buildEnv struct {
	seed int64
	// q receives the control loop's post-slot events.
	q *qualityLog
	// check attaches the invariant checker (the untimed check pass).
	check bool
	// tr, when non-nil, installs the span wrappers (the traced run).
	tr *tracer
	// dir is a directory of its own inside the output directory.
	dir string
}

// system is one built workload: the program under test wired the way its
// daemon wires it, plus the benchmark's own observers.
type system interface {
	// slot runs slot t of the closed loop.
	slot(t int) (slotTimes, error)
	// ledger reports the job counts for the conservation check.
	ledger() (ledger, error)
	// checkErr reports invariant violations seen by an attached checker.
	checkErr() error
	// openWindow marks the start of a measured window, for counters the
	// per-layer metrics read as deltas.
	openWindow() error
	// layers adds the workload-specific per-layer metrics of a traced run.
	layers(w *window, ms *metricSet) error
	close() error
}

// slotTimes is what one slot cost the driver.
type slotTimes struct {
	// tick is the tick's wall time and tickCPU the process CPU time it used
	// (see cpuNow); submit is the submit's wall time.
	tick, tickCPU, submit time.Duration
	// agentSlots and degraded count agent interactions and how many of them
	// were masked; rejected counts refused submits.
	agentSlots, degraded, rejected int
}

// ledger is the job accounting of a run: every submitted job is completed,
// queued, or still pending admission.
type ledger struct {
	submitted, completed, queued, pending float64
}

func (l ledger) check() error {
	rest := l.completed + l.queued + l.pending
	if math.Abs(l.submitted-rest) > 1e-9*math.Max(1, l.submitted) {
		return fmt.Errorf("job conservation: submitted %.6f != completed %.6f + queued %.6f + pending %.6f",
			l.submitted, l.completed, l.queued, l.pending)
	}
	return nil
}

// slotQuality is one slot's quality record.
type slotQuality struct {
	slot                    int
	energy, unfair, backlog float64
	degraded                int
}

// qualityLog is a SlotObserver that records the energy cost, unfairness (the
// negated fairness score -f(t)), total backlog and masked sites of each slot
// the control loop applies. It keeps the latest record, and every record of
// the slots [from, to) only, so its memory does not grow with run length.
type qualityLog struct {
	from, to int

	mu    sync.Mutex
	slots []slotQuality
	last  slotQuality
}

func newQualityLog(from, to int) *qualityLog {
	return &qualityLog{from: from, to: to, last: slotQuality{slot: -1}}
}

func (q *qualityLog) ObserveSlot(ev telemetry.SlotEvent) {
	if ev.Origin != telemetry.OriginController && ev.Origin != telemetry.OriginSim {
		return
	}
	rec := slotQuality{slot: ev.Slot, energy: ev.Energy, unfair: -ev.Fairness,
		backlog: ev.TotalBacklog, degraded: len(ev.Degraded)}
	q.mu.Lock()
	q.last = rec
	if ev.Slot >= q.from && ev.Slot < q.to {
		q.slots = append(q.slots, rec)
	}
	q.mu.Unlock()
}

// at returns slot t's record when it is the latest one.
func (q *qualityLog) at(t int) (slotQuality, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.last.slot != t {
		return slotQuality{}, fmt.Errorf("no slot event for slot %d (latest is %d)", t, q.last.slot)
	}
	return q.last, nil
}

// span returns the records of slots [from, from+n).
func (q *qualityLog) span(from, n int) ([]slotQuality, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []slotQuality
	for _, s := range q.slots {
		if s.slot >= from && s.slot < from+n {
			out = append(out, s)
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("quality window [%d,%d): %d slot events, want %d", from, from+n, len(out), n)
	}
	return out, nil
}

// chunkStats are one sub-window's statistics.
type chunkStats struct {
	// tickP50 and tickP90 are percentiles of tick CPU time scaled to the
	// reference host (see speedometer), wallP50 and wallP90 of tick wall
	// time.
	tickP50, tickP90     time.Duration
	wallP50, wallP90     time.Duration
	submitP50, submitP90 time.Duration
	// rate is slots per second of the driver's process CPU time scaled to
	// the reference host, wallRate per second of its wall time; heapPeak the
	// largest heap sampled after a slot, in bytes.
	rate, wallRate, heapPeak float64
	// probe is the median probe time (see speedometer).
	probe time.Duration
	// backlog is the mean backlog over the sub-window's first and second
	// half.
	backlog [2]float64
}

// window is one measured stretch of slots. Slots are folded into
// consecutive sub-windows of a fixed slot count as they run, and a timing is
// the median over the sub-windows of the statistic within each: a burst of
// interference from outside the benchmark moves one sub-window, not the
// result, and the window's memory does not grow with the slot count, so a
// faster program does not make the benchmark hold more heap. A trailing
// partial sub-window is not reported.
type window struct {
	chunk  int
	chunks []chunkStats
	// The open sub-window.
	ticks, wallTicks, submits, probes []time.Duration
	wall, scaled                      time.Duration
	heapPeak                          uint64
	backlog                           [2]float64 // summed over each half of the sub-window
	backlogN                          [2]int

	// head holds the scaled tick CPU times of the first quality slots.
	head    []time.Duration
	slots   int
	elapsed time.Duration

	allocs, gcCycles   uint64
	agentSlots, failed int
	attempted          int
	quality            []slotQuality
	// lerr is the job-conservation verdict at the end of the window.
	lerr error
}

func newWindow(sp spec) *window {
	return &window{
		chunk:     sp.chunk,
		ticks:     make([]time.Duration, 0, sp.chunk),
		wallTicks: make([]time.Duration, 0, sp.chunk),
		submits:   make([]time.Duration, 0, sp.chunk),
		head:      make([]time.Duration, 0, sp.quality),
	}
}

// probed records a probe reading taken during the open sub-window.
func (w *window) probed(d time.Duration) { w.probes = append(w.probes, d) }

// pendingSlot is a slot's record until the next probe reading, which scales
// its CPU times.
type pendingSlot struct {
	st        slotTimes
	wall, cpu time.Duration // the driver's whole loop iteration
	heap      uint64
	backlog   float64
}

// add folds one slot into the open sub-window; f scales its CPU times to the
// reference host.
func (w *window) add(p pendingSlot, f float64) {
	tick := scaleBy(p.st.tickCPU, f)
	if len(w.head) < cap(w.head) {
		w.head = append(w.head, tick)
	}
	w.slots++
	half := 2 * len(w.ticks) / w.chunk
	w.backlog[half] += p.backlog
	w.backlogN[half]++
	w.ticks = append(w.ticks, tick)
	w.wallTicks = append(w.wallTicks, p.st.tick)
	if p.st.submit > 0 {
		w.submits = append(w.submits, p.st.submit)
	}
	w.wall += p.wall
	w.scaled += scaleBy(p.cpu, f)
	w.heapPeak = max(w.heapPeak, p.heap)
	if len(w.ticks) < w.chunk {
		return
	}
	c := chunkStats{
		tickP50:  quantile(w.ticks, 0.5),
		tickP90:  quantile(w.ticks, 0.9),
		wallP50:  quantile(w.wallTicks, 0.5),
		wallP90:  quantile(w.wallTicks, 0.9),
		rate:     float64(len(w.ticks)) / w.scaled.Seconds(),
		wallRate: float64(len(w.ticks)) / w.wall.Seconds(),
		heapPeak: float64(w.heapPeak),
	}
	if len(w.probes) > 0 {
		c.probe = quantile(w.probes, 0.5)
	}
	if len(w.submits) > 0 {
		c.submitP50, c.submitP90 = quantile(w.submits, 0.5), quantile(w.submits, 0.9)
	}
	for h := range c.backlog {
		c.backlog[h] = w.backlog[h] / float64(max(1, w.backlogN[h]))
	}
	w.chunks = append(w.chunks, c)
	w.ticks, w.wallTicks, w.submits, w.probes = w.ticks[:0], w.wallTicks[:0], w.submits[:0], w.probes[:0]
	w.wall, w.scaled, w.heapPeak, w.backlog, w.backlogN = 0, 0, 0, [2]float64{}, [2]int{}
}

// median returns the median over the sub-windows of one statistic.
func (w *window) median(stat func(c chunkStats) float64) float64 {
	vals := make([]float64, len(w.chunks))
	for i, c := range w.chunks {
		vals[i] = stat(c)
	}
	return median(vals)
}

func (w *window) tickP50() float64 {
	return w.median(func(c chunkStats) float64 { return ms64(c.tickP50) })
}

func (w *window) wallTickP50() float64 {
	return w.median(func(c chunkStats) float64 { return ms64(c.wallP50) })
}

// probeUS is the median probe time over the sub-windows, in microseconds.
func (w *window) probeUS() float64 {
	return w.median(func(c chunkStats) float64 { return float64(c.probe) / 1e3 })
}

// backlogGrowth is the relative change of the mean backlog from the first to
// the last sub-window (from the first to the second half of a lone one); a
// stationary workload stays near 0.
func (w *window) backlogGrowth() float64 {
	first, last := w.chunks[0], w.chunks[len(w.chunks)-1]
	head, tail := first.backlog[0]+first.backlog[1], last.backlog[0]+last.backlog[1]
	if len(w.chunks) == 1 {
		head, tail = first.backlog[0], first.backlog[1]
	}
	if head == 0 {
		return 0
	}
	return tail/head - 1
}

type options struct {
	seed    int64
	seconds float64
	traced  bool
	out     string
	log     io.Writer
}

// runWorkload runs the check pass, the set-ups, the timed window and, when
// traced, the traced window, and assembles the result.
func runWorkload(sp spec, o options) (*result, error) {
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		dur /= 2 // the untraced and the traced window share the run time
	}
	res := &result{Correct: true}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(o.log, "perfbench: %s: CHECK FAILED: %s\n", sp.name, fmt.Sprintf(format, args...))
	}

	sm, err := newSpeedometer()
	if err != nil {
		return nil, err
	}
	defer sm.close()

	// Untimed check pass: a fresh system with the invariant checker attached
	// runs the warm-up and the check window.
	cr, err := checkPass(sp, o, sm, fail)
	if err != nil {
		return nil, err
	}

	// Set-ups: build and warm several systems, keep the last.
	var setups, wallSetups []float64
	var sys system
	var q *qualityLog
	for r := 0; r < setupRepeats; r++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
		}
		start := time.Now()
		q = newQualityLog(sp.warmup, sp.warmup+sp.quality)
		var cpu time.Duration
		sys, cpu, err = buildWarm(sp, buildEnv{seed: o.seed, q: q, dir: fmt.Sprintf("%s/%s-setup%d", o.out, sp.name, r)}, sm)
		if err != nil {
			return nil, err
		}
		setups, wallSetups = append(setups, cpu.Seconds()), append(wallSetups, time.Since(start).Seconds())
	}
	w, err := measure(sys, q, sp, dur, sm, nil)
	if cerr := sys.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	checkWindow(sp, "timed", w, cr.ref, fail)
	res.Attempted, res.Failed = w.attempted, w.failed
	growth := w.backlogGrowth()

	if !o.traced {
		ms := newMetricSet(endToEnd)
		ms.set("setup_s", median(setups))
		ms.set("tick_cpu_p50_ms", w.tickP50())
		ms.set("tick_cpu_p90_ms", w.median(func(c chunkStats) float64 { return ms64(c.tickP90) }))
		ms.set("slots_per_cpu_s", w.median(func(c chunkStats) float64 { return c.rate }))
		ms.set("allocs_per_slot", float64(w.allocs)/float64(w.slots))
		ms.set("heap_peak_mb", w.median(func(c chunkStats) float64 { return c.heapPeak / (1 << 20) }))
		e, u, b := qualityMeans(w.quality)
		ms.set("energy_cost_per_slot", e)
		ms.set("unfairness_per_slot", u)
		ms.set("backlog_mean", b)
		fmt.Fprintf(o.log, "perfbench: %s: %d timed slots in %.2fs; scaled set-ups %.4g s; unscaled wall: set-ups %.4g s, tick p50 %.4g ms; probe %.1f us\n",
			sp.name, w.slots, w.elapsed.Seconds(), setups, wallSetups, w.wallTickP50(), w.probeUS())
		if growth > growthFlag {
			fmt.Fprintf(o.log, "perfbench: %s: FLAG backlog grew %.1f%% across the timed window; the load is not stationary\n", sp.name, 100*growth)
		}
		res.Metrics = ms.export()
		return res, nil
	}

	// Traced run: a fresh system with the span wrappers installed.
	tr := newTracer()
	tq := newQualityLog(sp.warmup, sp.warmup+sp.quality)
	tsys, _, err := buildWarm(sp, buildEnv{seed: o.seed, q: tq, tr: tr, dir: fmt.Sprintf("%s/%s-traced", o.out, sp.name)}, sm)
	if err != nil {
		return nil, err
	}
	tw, err := measure(tsys, tq, sp, dur, sm, tr)
	if err == nil {
		checkWindow(sp, "traced", tw, cr.ref, fail)
		res.Attempted += tw.attempted
		res.Failed += tw.failed
	}
	ms := newMetricSet(perLayer)
	if err == nil {
		err = tr.commonLayers(tw, ms)
	}
	if err == nil {
		err = tsys.layers(tw, ms)
	}
	if cerr := tsys.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if w.chunks[0].submitP50 > 0 {
		ms.set("serve.submit_p50_ms", w.median(func(c chunkStats) float64 { return ms64(c.submitP50) }))
		ms.set("serve.submit_p90_ms", w.median(func(c chunkStats) float64 { return ms64(c.submitP90) }))
	}
	ms.set("invariant.check_us_per_slot", cr.checkUS(w))
	ms.set("runtime.gc_cycles_per_slot", float64(w.gcCycles)/float64(w.slots))
	ms.set("quality.backlog_growth", growth)
	ms.set("trace.overhead_share", tw.tickP50()/w.tickP50()-1)
	ms.set("wall.tick_p50_ms", w.wallTickP50())
	ms.set("wall.tick_p90_ms", w.median(func(c chunkStats) float64 { return ms64(c.wallP90) }))
	ms.set("wall.slots_per_s", w.median(func(c chunkStats) float64 { return c.wallRate }))
	ms.set("wall.setup_s", median(wallSetups))
	ms.set("host.probe_us", w.probeUS())
	path := fmt.Sprintf("%s/spans-%s.tsv", o.out, sp.name)
	if err := tr.dump(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "perfbench: %s: %d traced slots, %d spans written to %s\n", sp.name, tw.slots, tr.len(), path)
	res.Metrics = ms.export()
	return res, nil
}

// checkResult is what the untimed check pass leaves for the timed run.
type checkResult struct {
	// ref is the check pass's quality record after the warm-up, which the
	// deterministic workloads must reproduce.
	ref []slotQuality
	// ticks are the check pass's scaled tick CPU times after the warm-up.
	ticks []time.Duration
	// checkerNS is the checker's own time over the whole pass, when the
	// workload can time it apart from the slot (-1 otherwise), and slots the
	// pass length.
	checkerNS int64
	slots     int
}

// checkUS returns the invariant checker's cost per slot in microseconds:
// timed directly where the checker is a separate observer, otherwise as the
// check pass's tick time minus the timed window's over the same slots.
func (c checkResult) checkUS(w *window) float64 {
	if c.checkerNS >= 0 {
		return float64(c.checkerNS) / float64(c.slots) / 1e3
	}
	var with, without time.Duration
	for k, d := range c.ticks {
		with += d
		without += w.head[k]
	}
	return float64(with-without) / float64(len(c.ticks)) / 1e3
}

// checkPass runs the warm-up and the check window on a fresh system with the
// invariant checker attached, and checks it.
func checkPass(sp spec, o options, sm *speedometer, fail func(string, ...any)) (checkResult, error) {
	cr := checkResult{checkerNS: -1, slots: sp.warmup + sp.checkSlots}
	q := newQualityLog(sp.warmup, cr.slots)
	sys, err := sp.build(buildEnv{seed: o.seed, q: q, check: true, dir: fmt.Sprintf("%s/%s-check", o.out, sp.name)})
	if err != nil {
		return cr, err
	}
	defer sys.close()
	// Tick CPU times after the warm-up wait in pend for the probe reading
	// after them, as in measure.
	var pend []time.Duration
	flush := func() error {
		if _, err := sm.read(); err != nil {
			return err
		}
		for _, d := range pend {
			cr.ticks = append(cr.ticks, scaleBy(d, sm.factor()))
		}
		pend = pend[:0]
		return nil
	}
	for t := 0; t < cr.slots; t++ {
		if t == sp.warmup || (t > sp.warmup && sm.due()) {
			if err := flush(); err != nil {
				return cr, err
			}
		}
		st, err := sys.slot(t)
		if err != nil {
			return cr, fmt.Errorf("check pass slot %d: %w", t, err)
		}
		if t >= sp.warmup {
			pend = append(pend, st.tickCPU)
		}
	}
	if err := flush(); err != nil {
		return cr, err
	}
	if err := sys.checkErr(); err != nil {
		fail("check pass: %v", err)
	}
	l, err := sys.ledger()
	if err != nil {
		return cr, err
	}
	if err := l.check(); err != nil {
		fail("check pass: %v", err)
	}
	cr.ref, err = q.span(sp.warmup, sp.checkSlots)
	if err != nil {
		return cr, err
	}
	if c, ok := sys.(interface{ checkCost() time.Duration }); ok {
		cr.checkerNS = int64(c.checkCost())
	}
	return cr, nil
}

// buildWarm builds a system and runs its warm-up slots. It returns the CPU
// time that took, scaled to the reference host piece by piece between probe
// readings.
func buildWarm(sp spec, env buildEnv, sm *speedometer) (system, time.Duration, error) {
	var scaled time.Duration
	if _, err := sm.read(); err != nil {
		return nil, 0, err
	}
	piece := cpuNow()
	endPiece := func() error {
		cpu := cpuNow() - piece
		if _, err := sm.read(); err != nil {
			return err
		}
		scaled += scaleBy(cpu, sm.factor())
		piece = cpuNow()
		return nil
	}
	sys, err := sp.build(env)
	if err == nil {
		err = endPiece()
	}
	for t := 0; err == nil && t < sp.warmup; t++ {
		if _, err = sys.slot(t); err != nil {
			err = fmt.Errorf("warm-up slot %d: %w", t, err)
		} else if sm.due() {
			err = endPiece()
		}
	}
	if err == nil {
		err = endPiece()
	}
	if err != nil {
		if sys != nil {
			sys.close()
		}
		return nil, 0, err
	}
	return sys, scaled, nil
}

// maxWindow caps a measured window that has not reached its minimum slot
// count; such a window fails the run.
const maxWindow = 60 * time.Second

// runtime/metrics samples read around and during a window; none of them stops
// the world.
var sampleNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
}

// measure runs the closed loop on sys for at least dur and at least
// sp.quality slots, starting after the warm-up.
func measure(sys system, q *qualityLog, sp spec, dur time.Duration, sm *speedometer, tr *tracer) (*window, error) {
	w := newWindow(sp)
	samples := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		samples[i].Name = n
	}
	runtime.GC()
	metrics.Read(samples)
	allocs0, gc0 := samples[0].Value.Uint64(), samples[1].Value.Uint64()
	if tr != nil {
		tr.reset() // drop the warm-up's spans
	}
	if err := sys.openWindow(); err != nil {
		return nil, err
	}
	var stopSampler func() int
	if tr != nil {
		stopSampler = sampleGoroutines()
	}
	// A hard stop keeps a much slower machine inside the run time limit.
	hardStop := max(dur, maxWindow)
	// Slots wait in pend for the probe reading after them: the readings just
	// before and just after a slot scale it.
	pend := make([]pendingSlot, 0, 64)
	runs0 := sm.runs
	flush := func() error {
		d, err := sm.read()
		if err != nil {
			return err
		}
		w.probed(d)
		f := sm.factor()
		for _, p := range pend {
			w.add(p, f)
		}
		pend = pend[:0]
		return nil
	}
	start := time.Now()
	err := flush()
	for k := 0; err == nil; k++ {
		el := time.Since(start)
		if (k >= sp.quality && el >= dur) || el >= hardStop {
			err = flush()
			break
		}
		if sm.due() {
			if err = flush(); err != nil {
				break
			}
		}
		it := startWatch()
		t := sp.warmup + k
		var st slotTimes
		if st, err = sys.slot(t); err != nil {
			err = fmt.Errorf("slot %d: %w", t, err)
			break
		}
		var rec slotQuality
		if rec, err = q.at(t); err != nil {
			break
		}
		w.agentSlots += st.agentSlots
		w.failed += st.degraded + st.rejected
		metrics.Read(samples[2:])
		wall, cpu := it.elapsed()
		pend = append(pend, pendingSlot{st: st, wall: wall, cpu: cpu, heap: samples[2].Value.Uint64(), backlog: rec.backlog})
	}
	w.elapsed = time.Since(start)
	if stopSampler != nil {
		tr.goroutinesPeak = stopSampler()
	}
	if err != nil {
		return nil, err
	}
	metrics.Read(samples)
	// The probe's allocations are not the program's.
	probeAllocs := uint64(float64(sm.runs-runs0) * sm.allocsPerRun)
	w.allocs = samples[0].Value.Uint64() - allocs0 - probeAllocs
	w.gcCycles = samples[1].Value.Uint64() - gc0
	if w.slots < sp.quality {
		return nil, fmt.Errorf("only %d slots in %v, want at least %d", w.slots, hardStop, sp.quality)
	}
	w.attempted = w.agentSlots + w.slots
	if w.chunks[0].submitP50 > 0 {
		w.attempted = 2 * w.slots // a submit and a tick per slot
	}
	if w.quality, err = q.span(sp.warmup, sp.quality); err != nil {
		return nil, err
	}
	if err := sys.checkErr(); err != nil {
		return nil, err
	}
	l, err := sys.ledger()
	if err != nil {
		return nil, err
	}
	w.lerr = l.check()
	return w, nil
}

// checkWindow verifies a measured window: job conservation and, on a
// deterministic workload, a quality window identical to the check pass.
func checkWindow(sp spec, label string, w *window, ref []slotQuality, fail func(string, ...any)) {
	if w.lerr != nil {
		fail("%s window: %v", label, w.lerr)
	}
	if !sp.deterministic {
		return
	}
	for k := range ref {
		if w.quality[k] != ref[k] {
			fail("%s window slot %d differs from the check pass: got %+v, want %+v", label, ref[k].slot, w.quality[k], ref[k])
			return
		}
	}
}

func qualityMeans(q []slotQuality) (energy, unfair, backlog float64) {
	for _, s := range q {
		energy += s.energy
		unfair += s.unfair
		backlog += s.backlog
	}
	n := float64(len(q))
	return energy / n, unfair / n, backlog / n
}

// growthFlag is the backlog growth over the timed window above which a run
// is flagged as not stationary.
const growthFlag = 0.10

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of d by linear interpolation between
// order statistics.
func quantile(d []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

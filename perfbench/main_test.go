package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json these tests compare with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if b.EndToEnd[i].Name != d.name || b.EndToEnd[i].Unit != d.unit {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %s/%s, the benchmark %s/%s", i, b.EndToEnd[i].Name, b.EndToEnd[i].Unit, d.name, d.unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if b.PerLayer[i].Name != d.name || b.PerLayer[i].Unit != d.unit {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %s/%s, the benchmark %s/%s", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, d.name, d.unit)
		}
	}
	if len(b.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if i < len(specs) && specs[i].name != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's %q", i, w.Name, specs[i].name)
		}
	}
}

// shortSpec shrinks a workload's slot counts so a whole run takes seconds.
func shortSpec(sp spec) spec {
	sp.warmup, sp.quality, sp.chunk, sp.checkSlots = 2, 3, 3, 3
	return sp
}

var printedName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkPrinted runs printResult and checks every printed metric name and
// the JSON line against the declared list.
func checkPrinted(t *testing.T, name string, res *result, want []decl) {
	t.Helper()
	var out bytes.Buffer
	if err := printResult(&out, name, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	declared := map[string]string{}
	for _, d := range want {
		declared[d.name] = d.unit
	}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != name {
			t.Errorf("malformed metric line %q", line)
			continue
		}
		if !printedName.MatchString(f[1]) {
			t.Errorf("printed name %q does not match %s", f[1], printedName)
		}
		if unit, ok := declared[f[1]]; !ok || unit != f[3] {
			t.Errorf("printed metric %s %s is not declared in BENCHMARK.json", f[1], f[3])
		}
	}
	var got result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if len(got.Metrics) != len(want) || got.Attempted < 1 || !got.Correct {
		t.Errorf("result line: %d metrics (want %d), attempted %d, correct %v", len(got.Metrics), len(want), got.Attempted, got.Correct)
	}
}

// openFDs counts the process's open file descriptors (sockets included).
func openFDs(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count file descriptors: %v", err)
	}
	return len(ents)
}

// settle waits until the goroutine count drops to at most n.
func settle(n int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestRepeatedRunsLeakNothing runs every workload twice in one process,
// untraced and traced, and checks that each run returns the process to its
// goroutine and file-descriptor counts: fleets, servers, reconnecting clients
// and snapshot stores are all closed.
func TestRepeatedRunsLeakNothing(t *testing.T) {
	for _, sp := range specs {
		name := sp.name
		t.Run(name, func(t *testing.T) {
			sp := shortSpec(sp)
			for rep := 0; rep < 2; rep++ {
				for _, traced := range []bool{false, true} {
					g0, fd0 := runtime.NumGoroutine(), openFDs(t)
					dir := t.TempDir()
					res, err := runWorkload(sp, options{seed: int64(3 + rep), seconds: 0.001, traced: traced, out: dir, log: &bytes.Buffer{}})
					if err != nil {
						t.Fatal(err)
					}
					want := endToEnd
					if traced {
						want = perLayer
					}
					checkPrinted(t, name, res, want)
					if g := settle(g0); g > g0 {
						t.Errorf("run %d traced=%v: %d goroutines before, %d after", rep, traced, g0, g)
					}
					if fd := openFDs(t); fd > fd0 {
						t.Errorf("run %d traced=%v: %d open files before, %d after", rep, traced, fd0, fd)
					}
					ents, err := os.ReadDir(dir)
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range ents {
						if e.IsDir() {
							t.Errorf("run left the directory %s behind", e.Name())
						}
					}
				}
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	d := []time.Duration{5, 1, 4, 2, 3}
	if got := quantile(d, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(d, 0.9); got != 4 {
		t.Errorf("p90 = %v, want 4 (interpolated 4.6, truncated to ns)", got)
	}
}

func TestUnion(t *testing.T) {
	ivs := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {25, 26}}
	if got := union(ivs); got != 25 {
		t.Errorf("union = %d, want 25", got)
	}
}

// TestProbeAllocatesOnlyInGob keeps the probe out of the garbage
// collector's way: an allocating probe is charged assist work in proportion
// to the program's own allocation rate, so only the gob messages, whose
// allocations are part of the code path the probe stands for, may allocate.
func TestProbeAllocatesOnlyInGob(t *testing.T) {
	p, err := newProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	if _, err := p.run(); err != nil {
		t.Fatal(err)
	}
	var rerr error
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.run(); err != nil {
			rerr = err
		}
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
	var b bytes.Buffer
	gobAllocs := testing.AllocsPerRun(20, func() {
		b.Reset()
		if err := gob.NewEncoder(&b).Encode(&p.msg); err != nil {
			rerr = err
		}
		if err := gob.NewDecoder(&b).Decode(&p.out); err != nil {
			rerr = err
		}
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if allocs > probeGobs*gobAllocs {
		t.Errorf("probe allocates %v objects per run, its %d gob messages %v", allocs, probeGobs, probeGobs*gobAllocs)
	}
}

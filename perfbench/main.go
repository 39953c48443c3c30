// Command perfbench is the repository benchmark. It drives one workload in a
// closed loop (one slot in flight, from a single driver goroutine), checks the
// outputs and prints every metric by name with its unit; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload wan3 --seed 7 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1 adds
// a traced run of a fresh system and reports the per-layer metrics instead.
// --workload all runs every workload in turn, each ending with its own result
// line, and exits non-zero if any of them fails.
// See perfbench/README.md for the workloads and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

func main() {
	// One P: the program's goroutines share one CPU, so a tick's CPU time is
	// its work, without idle threads spinning or waking each other across
	// CPUs (see README.md, "Steadiness").
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: wan3, fleet1000, serve-large, or all of them in turn")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of each measured window in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 adds a traced run and reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for snapshot stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	chosen, ok := selectSpecs(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %v\n", *seconds)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, sp := range chosen {
		res, err := runWorkload(sp, options{
			seed:    *seed,
			seconds: *seconds,
			traced:  *trace == 1,
			out:     *out,
			log:     stderr,
		})
		if err == nil {
			err = printResult(stdout, sp.name, res)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
			code = 1
			continue
		}
		if !res.Correct {
			fmt.Fprintf(stderr, "perfbench: %s: output check failed\n", sp.name)
			code = 1
		}
	}
	return code
}

// printResult writes one human-readable line per metric, then the JSON
// result line.
func printResult(w io.Writer, workload string, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", workload, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

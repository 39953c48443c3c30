// Command benchjson converts `go test -bench` output into a stable JSON
// baseline and guards later runs against it.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkSlotDecision$|BenchmarkDistributedSlot$' \
//	        -benchmem -count=3 . | benchjson -out BENCH_slot.json
//	go test ... | benchjson -compare BENCH_slot.json -max-regress 0.15
//
// Benchmark names are recorded with the -GOMAXPROCS suffix stripped so the
// baseline is portable across machines with different core counts. With
// -count > 1 the fastest repetition per benchmark is kept: ns/op noise is
// one-sided (scheduling and thermal jitter only ever slow a run down), so
// the minimum is the most reproducible summary.
//
// In -compare mode the exit status is nonzero when any benchmark matching
// -guard (default: the beta=100 and large-instance slot-decision cases, the
// solver hot paths) regresses more than -max-regress in ns/op or allocs/op
// against the recorded baseline, or is missing from the run altogether (a
// renamed or deleted guarded benchmark must not pass vacuously). Other
// baseline benchmarks are reported, regressed or missing, but do not fail
// the run; benchmarks present only in the run are ignored.
//
// -filter restricts the parsed results, and in -compare mode the baseline,
// to names matching a regexp before anything else happens — useful for
// recording or guarding one benchmark family out of a wider run. An input
// with no matching results is an error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark's recorded performance.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// gomaxprocsSuffix matches the trailing -N that `go test` appends to
// benchmark names (GOMAXPROCS at run time).
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench` output and returns the fastest
// repetition per benchmark, keyed by name without the GOMAXPROCS suffix.
func parseBench(r io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		var res Result
		ok := false
		// Benchmark lines are "name iters value unit value unit ...".
		for f := 2; f+1 < len(fields); f += 2 {
			v, err := strconv.ParseFloat(fields[f], 64)
			if err != nil {
				continue
			}
			switch fields[f+1] {
			case "ns/op":
				res.NsPerOp = v
				ok = true
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		if !ok {
			continue
		}
		if prev, seen := out[name]; !seen || res.NsPerOp < prev.NsPerOp {
			out[name] = res
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found on input")
	}
	return out, nil
}

// regression describes one guarded metric exceeding the allowed slack.
type regression struct {
	name   string
	metric string
	old    float64
	new    float64
}

// compare checks current results against the baseline and returns the
// guarded regressions beyond maxRegress (a fraction, e.g. 0.15 for 15%).
// Metrics with a zero baseline are skipped: a ratio against zero is
// meaningless, and allocs/op legitimately sits at zero for some paths.
func compare(w io.Writer, baseline, current map[string]Result, guard *regexp.Regexp, maxRegress float64) []regression {
	var bad []regression
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		if _, ok := current[name]; ok {
			names = append(names, name)
		}
	}
	sortStrings(names)
	for _, name := range names {
		old, cur := baseline[name], current[name]
		guarded := guard.MatchString(name)
		for _, m := range []struct {
			metric   string
			old, new float64
		}{
			{"ns/op", old.NsPerOp, cur.NsPerOp},
			{"allocs/op", old.AllocsPerOp, cur.AllocsPerOp},
		} {
			if m.old == 0 {
				continue
			}
			frac := (m.new - m.old) / m.old
			status := "ok"
			if frac > maxRegress {
				if guarded {
					status = "FAIL"
					bad = append(bad, regression{name, m.metric, m.old, m.new})
				} else {
					status = "warn"
				}
			}
			fmt.Fprintf(w, "%-4s %-50s %-10s %12.1f -> %12.1f  (%+.1f%%)\n",
				status, name, m.metric, m.old, m.new, 100*frac)
		}
	}
	return bad
}

// missing reports the baseline benchmarks that have no result in the current
// run and returns the guarded ones, which fail the comparison.
func missing(w io.Writer, baseline, current map[string]Result, guard *regexp.Regexp) []string {
	var names []string
	for name := range baseline {
		if _, ok := current[name]; !ok {
			names = append(names, name)
		}
	}
	sortStrings(names)
	var bad []string
	for _, name := range names {
		status := "warn"
		if guard.MatchString(name) {
			status = "FAIL"
			bad = append(bad, name)
		}
		fmt.Fprintf(w, "%-4s %-50s missing from this run\n", status, name)
	}
	return bad
}

// sortStrings is an insertion sort; the name lists here are tiny and this
// keeps the command free of incidental imports.
func sortStrings(s []string) {
	for a := 1; a < len(s); a++ {
		for b := a; b > 0 && s[b] < s[b-1]; b-- {
			s[b], s[b-1] = s[b-1], s[b]
		}
	}
}

func run(in io.Reader, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	outPath := fs.String("out", "", "write parsed results as JSON to this file")
	comparePath := fs.String("compare", "", "baseline JSON to compare against; exit nonzero on guarded regression")
	maxRegress := fs.Float64("max-regress", 0.15, "allowed fractional regression for guarded benchmarks")
	guardExpr := fs.String("guard", `^BenchmarkSlotDecision/(beta=100|N=)`, "regexp of benchmark names that fail the run on regression")
	filterExpr := fs.String("filter", "", "regexp restricting which parsed benchmarks are recorded or compared (empty = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" && *comparePath == "" {
		return fmt.Errorf("nothing to do: pass -out and/or -compare")
	}
	guard, err := regexp.Compile(*guardExpr)
	if err != nil {
		return fmt.Errorf("bad -guard: %v", err)
	}
	current, err := parseBench(in)
	if err != nil {
		return err
	}
	var filter *regexp.Regexp
	if *filterExpr != "" {
		filter, err = regexp.Compile(*filterExpr)
		if err != nil {
			return fmt.Errorf("bad -filter: %v", err)
		}
		for name := range current {
			if !filter.MatchString(name) {
				delete(current, name)
			}
		}
		if len(current) == 0 {
			return fmt.Errorf("-filter %q matched no benchmark results", *filterExpr)
		}
	}
	if *outPath != "" {
		// json.Marshal emits map keys in sorted order, so the committed
		// baseline diffs cleanly.
		buf, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d benchmark results to %s\n", len(current), *outPath)
	}
	if *comparePath != "" {
		buf, err := os.ReadFile(*comparePath)
		if err != nil {
			return err
		}
		baseline := make(map[string]Result)
		if err := json.Unmarshal(buf, &baseline); err != nil {
			return fmt.Errorf("%s: %v", *comparePath, err)
		}
		for name := range baseline {
			if filter != nil && !filter.MatchString(name) {
				delete(baseline, name)
			}
		}
		bad := compare(out, baseline, current, guard, *maxRegress)
		gone := missing(out, baseline, current, guard)
		for _, r := range bad {
			fmt.Fprintf(out, "regression: %s %s %.1f -> %.1f exceeds %.0f%% budget\n",
				r.name, r.metric, r.old, r.new, 100**maxRegress)
		}
		for _, name := range gone {
			fmt.Fprintf(out, "missing: guarded benchmark %s has no result in this run\n", name)
		}
		if len(bad) > 0 || len(gone) > 0 {
			return fmt.Errorf("%d guarded benchmark metric(s) regressed beyond %.0f%%, %d guarded benchmark(s) missing",
				len(bad), 100**maxRegress, len(gone))
		}
		fmt.Fprintf(out, "no guarded regressions against %s\n", *comparePath)
	}
	return nil
}

func main() {
	if err := run(os.Stdin, os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

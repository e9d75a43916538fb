// Command benchjson runs a set of Go benchmarks and emits their results
// as a stable JSON document (ns/op, B/op, allocs/op per benchmark), or
// compares a fresh run against a committed baseline and fails when a
// metric regresses past its threshold.
//
// It exists so CI can gate on allocation regressions without external
// tooling (benchstat is not vendored): the repo commits the baseline
// (BENCH_PR3.json) and the regression job runs
//
//	go run ./cmd/benchjson -bench '^(BenchmarkFig7a|BenchmarkEngineBatch)$' \
//	    -benchtime 2x -baseline BENCH_PR3.json
//
// Comparison rules: allocs/op is the tightest gating metric — it is
// deterministic for these simulations (virtual-time kernels allocate
// identically run to run). ns/op is gated too, at ±25% by default: wide
// enough for shared-runner noise, tight enough that losing the execution
// core's constant-factor wins (persistent workers, SPSC rings, the tree
// barrier) trips the gate. Raise -time-tolerance per-invocation when a
// runner class is known-noisy.
//
// With -count N the benchmarks run N times (go test -count) and every
// gated metric is the per-benchmark median, so one noisy sample on a
// shared runner neither writes a skewed baseline nor trips the gate.
// Custom b.ReportMetric columns (req/s, p99-wait-ns, ...) are tolerated
// and ignored: only ns/op, B/op, and allocs/op are recorded.
//
// Usage:
//
//	benchjson -bench 'BenchmarkFig7c' -count 3 -o BENCH_PR5.json  # write baseline
//	benchjson -bench '...' -baseline BENCH_PR5.json               # gate in CI
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measured metrics. With -count > 1 each
// metric is the median of the samples (ties averaged), and Samples
// records how many runs fed it.
type Result struct {
	Name     string  `json:"name"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   int64   `json:"b_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`
	Samples  int     `json:"samples,omitempty"`
}

// Doc is the file format: results keyed by benchmark name plus the exact
// command that produced them, so a baseline is reproducible by hand.
type Doc struct {
	Command string   `json:"command"`
	Results []Result `json:"results"`
}

func main() {
	var (
		bench     = flag.String("bench", "^(BenchmarkFig7a|BenchmarkEngineBatch|BenchmarkFTSort|BenchmarkDirectBatch|BenchmarkClusterThroughput|BenchmarkMultipathSort|BenchmarkTransportCodec)$", "benchmark regexp passed to go test -bench")
		benchtime = flag.String("benchtime", "2x", "value passed to go test -benchtime")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		out       = flag.String("o", "", "write results as JSON to this file (default stdout)")
		baseline  = flag.String("baseline", "", "compare against this baseline JSON instead of writing; non-zero exit on regression")
		allocTol  = flag.Float64("alloc-tolerance", 0.10, "allowed fractional allocs/op increase over baseline")
		bytesTol  = flag.Float64("bytes-tolerance", 0.25, "allowed fractional B/op increase over baseline")
		timeTol   = flag.Float64("time-tolerance", 0.25, "allowed fractional ns/op increase over baseline")
		count     = flag.Int("count", 1, "benchmark repetitions (go test -count); metrics are per-benchmark medians")
		input     = flag.String("parse", "", "parse an existing `go test -bench` output file instead of running benchmarks")
	)
	flag.Parse()

	var (
		raw     []byte
		command string
		err     error
	)
	if *input != "" {
		command = "parsed from " + *input
		raw, err = os.ReadFile(*input)
		if err != nil {
			fatal(err)
		}
	} else {
		args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem", "-benchtime", *benchtime, "-count", strconv.Itoa(*count), *pkg}
		command = "go " + strings.Join(args, " ")
		fmt.Fprintf(os.Stderr, "benchjson: %s\n", command)
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		raw, err = cmd.Output()
		if err != nil {
			fatal(fmt.Errorf("benchmark run failed: %w", err))
		}
	}

	results, err := parseBench(string(raw))
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark results matched %q", *bench))
	}
	doc := Doc{Command: command, Results: results}

	if *baseline != "" {
		base, err := readDoc(*baseline)
		if err != nil {
			fatal(err)
		}
		if ok := compare(base, doc, *allocTol, *bytesTol, *timeTol); !ok {
			os.Exit(1)
		}
		return
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(results), *out)
}

// benchLine matches `go test -bench -benchmem` output rows, tolerating
// any custom b.ReportMetric columns between ns/op and the -benchmem
// pair (req/s, p99-wait-ns, ...), e.g.
//
//	BenchmarkFig7c-4   2   119450477 ns/op   23925104 B/op   20650 allocs/op
//	BenchmarkEngineThroughput/batching-4   516145   3923 ns/op   254930 req/s   145 B/op   1 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+[\d.eE+-]+ [\w/.-]+)*?\s+(\d+) B/op\s+(\d+) allocs/op`)

// parseBench extracts Results from go test -bench output, collapsing
// repeated rows of one benchmark (go test -count N) into per-metric
// medians. Benchmarks without -benchmem columns are skipped (everything
// in this repo reports allocations).
func parseBench(out string) ([]Result, error) {
	samples := make(map[string]*[3][]float64)
	var order []string
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		bpo, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad B/op in %q: %w", line, err)
		}
		apo, err := strconv.ParseInt(m[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad allocs/op in %q: %w", line, err)
		}
		s, ok := samples[m[1]]
		if !ok {
			s = new([3][]float64)
			samples[m[1]] = s
			order = append(order, m[1])
		}
		s[0] = append(s[0], ns)
		s[1] = append(s[1], float64(bpo))
		s[2] = append(s[2], float64(apo))
	}
	results := make([]Result, 0, len(order))
	for _, name := range order {
		s := samples[name]
		results = append(results, Result{
			Name:     name,
			NsPerOp:  median(s[0]),
			BPerOp:   int64(median(s[1])),
			AllocsOp: int64(median(s[2])),
			Samples:  len(s[0]),
		})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	return results, nil
}

// median returns the middle sample (the mean of the middle two for even
// counts). The slice is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func readDoc(path string) (Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Doc{}, err
	}
	var d Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return Doc{}, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// compare prints a per-benchmark table and returns false if any current
// metric exceeds baseline*(1+tolerance) or any baseline row was not
// measured: a row that silently stops matching (a renamed benchmark, a
// name that parses differently on another host) would otherwise leave
// its gate unchecked. A measured row with no baseline is reported but
// passes, so adding a benchmark needs no baseline refresh.
func compare(base, cur Doc, allocTol, bytesTol, timeTol float64) bool {
	baseBy := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	ok := true
	for _, c := range cur.Results {
		b, found := baseBy[c.Name]
		if !found {
			fmt.Printf("%-48s (new; no baseline)\n", c.Name)
			continue
		}
		delete(baseBy, c.Name)
		allocBad := exceeds(float64(c.AllocsOp), float64(b.AllocsOp), allocTol)
		bytesBad := exceeds(float64(c.BPerOp), float64(b.BPerOp), bytesTol)
		timeBad := exceeds(c.NsPerOp, b.NsPerOp, timeTol)
		status := "ok"
		if allocBad || bytesBad || timeBad {
			status = "REGRESSION"
			ok = false
		}
		fmt.Printf("%-48s allocs %8d -> %8d (%+6.1f%%)  B %10d -> %10d  ns %12.0f -> %12.0f  %s\n",
			c.Name, b.AllocsOp, c.AllocsOp, pct(float64(c.AllocsOp), float64(b.AllocsOp)),
			b.BPerOp, c.BPerOp, b.NsPerOp, c.NsPerOp, status)
		if allocBad {
			fmt.Printf("  allocs/op regressed beyond %.0f%% tolerance\n", allocTol*100)
		}
		if bytesBad {
			fmt.Printf("  B/op regressed beyond %.0f%% tolerance\n", bytesTol*100)
		}
		if timeBad {
			fmt.Printf("  ns/op regressed beyond %.0f%% tolerance\n", timeTol*100)
		}
	}
	missing := make([]string, 0, len(baseBy))
	for name := range baseBy {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Printf("%-48s MISSING — in baseline but not measured\n", name)
		ok = false
	}
	if !ok {
		fmt.Println("benchjson: FAIL — regression against baseline, or a baseline row not measured")
	} else {
		fmt.Println("benchjson: PASS — within baseline tolerances")
	}
	return ok
}

// exceeds reports cur > base*(1+tol), treating a zero baseline as "any
// increase is a regression" only when cur exceeds a small absolute slack.
func exceeds(cur, base, tol float64) bool {
	if base == 0 {
		return cur > 8 // allow trivial noise over a zero baseline
	}
	return cur > base*(1+tol)
}

func pct(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// Command bench is the request ledger: one benchmark over the real
// cmd/serve binary and the paper reproduction (cmd/reproduce), plus a
// separate traced run that attributes a request's time to the layers
// it crosses. Run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload serve-small --seed 1 --seconds 22 --trace 0
//
// --workload names one workload of BENCHMARK.json, or all. --trace 0
// measures the end-to-end metrics; --trace 1 skips those phases, prints
// the per-layer metrics and writes a Chrome trace-event file under
// .bench_build/ledger/. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics; progress
// and summaries go to standard error. bench/README.md describes the
// workloads, the metrics and the ledger.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"hypersort/internal/xrand"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout))
}

// options are one invocation's settings.
type options struct {
	root    string // repository root: go.mod, cmd/ and results/
	work    string // binaries, reproduce outputs and trace files
	seed    uint64
	seconds time.Duration // measured time of one run
}

// metricDef declares one printed metric; BENCHMARK.json declares the
// same names and units (contract_test.go holds the two together).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MiB"},
	{"setup_s", "s"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	firstErr  error
}

// newResult starts a result in which every declared metric reads 0.
func newResult(defs []metricDef) *result {
	r := &result{Correct: true, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Unit: d.unit}
	}
	return r
}

// set records a declared metric; an undeclared name is a bug.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}

// fail records one failed operation.
func (r *result) fail(err error) {
	r.Failed++
	r.Correct = false
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// account adds a load phase's requests to the result.
func (r *result) account(p *phase) {
	r.Attempted += len(p.samples)
	for _, s := range p.samples {
		if s.err != nil {
			r.fail(s.err)
		}
	}
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: serve-small, serve-large, proxy-mix, reproduce, or all")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 22, "seconds one run measures")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end phases")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w := findWorkload(*name); w != nil {
		selected = []*workload{w}
	}
	if len(selected) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	if runtime.GOOS != "linux" {
		logf("bench: %v", errNotLinux)
		return 1
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := options{
		root:    ".",
		work:    filepath.Join(".bench_build", "ledger"),
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
	}
	code, err := runAll(ctx, o, selected, *trace == 1, stdout)
	if err != nil {
		logf("bench: %v", err)
		return 1
	}
	return code
}

// runAll builds the binaries and runs each selected workload, printing
// one JSON line per workload. It returns exit code 1 if any run was
// incorrect.
func runAll(ctx context.Context, o options, selected []*workload, traced bool, stdout io.Writer) (int, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return 1, err
	}
	bins, err := build(ctx, o.root, filepath.Join(o.work, "bin"))
	if err != nil {
		return 1, err
	}
	code := 0
	for _, w := range selected {
		// A hung server must not hang the benchmark: every phase is
		// bounded by the run's deadline.
		wctx, cancel := context.WithTimeout(ctx, 3*o.seconds+time.Minute)
		res, err := runWorkload(wctx, o, bins, w, traced)
		cancel()
		if err != nil {
			return 1, fmt.Errorf("%s: %w", w.name, err)
		}
		if !res.Correct {
			logf("bench: %s: %d of %d operations failed; first: %v", w.name, res.Failed, res.Attempted, res.firstErr)
			code = 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code, nil
}

func runWorkload(ctx context.Context, o options, bins binaries, w *workload, traced bool) (*result, error) {
	switch {
	case traced && w.pool == nil:
		return runTracedReproduce(ctx, o, bins)
	case traced:
		return runTracedServe(ctx, o, bins, w)
	case w.pool == nil:
		return runReproduce(ctx, bins, o)
	default:
		return runServe(ctx, o, bins, w)
	}
}

// coldStarts is how many times a serve run launches its processes to
// measure set-up; the last launch serves the measured phases.
const coldStarts = 5

// warmupTime is the untimed closed loop before the measured open loop,
// which runs for the whole measured time.
func warmupTime(s time.Duration) time.Duration { return s / 10 }

// runServe measures a serve workload end to end: cold starts, an
// untimed warm-up, then a fixed-rate open loop.
func runServe(ctx context.Context, o options, bins binaries, w *workload) (*result, error) {
	res := newResult(endToEnd)
	pool := w.pool(xrand.New(o.seed))
	var setups []float64
	var f *fleet
	var t *target
	for c := 0; c < coldStarts; c++ {
		if f != nil {
			t.close()
			f.stop()
		}
		var err error
		var setup time.Duration
		f, t, setup, err = coldStart(ctx, bins, w, pool, res)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	defer f.stop()
	defer t.close()

	seq := 0
	warm := closedLoop(ctx, t, warmupTime(o.seconds), seq)
	res.account(warm)
	seq += len(warm.samples)

	ticks0, err := f.cpuTicks()
	if err != nil {
		return nil, err
	}
	open := openLoop(ctx, t, w.rate, o.seconds, seq)
	ticks1, err := f.cpuTicks()
	if err != nil {
		return nil, err
	}
	res.account(open)
	rss, err := f.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	lat := open.latencies()
	p50, err := quantile(lat, 0.50)
	if err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	p99, err := quantile(lat, 0.99)
	if err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	cpuMs := float64(ticks1-ticks0) * 1000 / clockTicksPerSecond
	res.set("p50_ms", p50)
	res.set("p99_ms", p99)
	res.set("cpu_ms_per_op", cpuMs/float64(len(open.samples)))
	res.set("rss_mb", rss)
	res.set("setup_s", median(setups))

	late99, lateMax := open.lateness()
	logf("%s: setup %.3f s (median of %d cold starts); open loop %d req at %g/s: p50 %.3f ms p99 %.3f ms, generator lateness p99 %v max %v; cpu %.3f ms/req; rss %.1f MiB",
		w.name, median(setups), coldStarts, len(open.samples), w.rate, p50, p99, late99, lateMax,
		cpuMs/float64(len(open.samples)), rss)
	return res, nil
}

// coldStart launches w's processes and sends one request of every
// distinct (configuration, operation) of the pool, returning the time
// from launch until all of them have answered.
func coldStart(ctx context.Context, bins binaries, w *workload, pool []*request, res *result) (*fleet, *target, time.Duration, error) {
	start := time.Now()
	f, err := startFleet(ctx, bins, w)
	if err != nil {
		return nil, nil, 0, err
	}
	t := newTarget(f.base, pool)
	for _, seq := range probes(pool) {
		_, _, err := t.exchange(ctx, seq, new(bytes.Buffer))
		res.Attempted++
		if err != nil {
			res.fail(fmt.Errorf("cold start: %w", err))
		}
	}
	if err := ctx.Err(); err != nil {
		t.close()
		f.stop()
		return nil, nil, 0, err
	}
	return f, t, time.Since(start), nil
}

// probes lists the pool index of the first request of every distinct
// (configuration, operation); one batch, which spans the ladder, covers
// the batch endpoint.
func probes(pool []*request) []int {
	seen := map[string]bool{}
	var seqs []int
	for i, r := range pool {
		key := r.kind()
		if r.path != batchPath {
			key += r.items[0].cfg.String()
		}
		if !seen[key] {
			seen[key] = true
			seqs = append(seqs, i)
		}
	}
	return seqs
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// declared maps a metric list to name -> unit.
func declared(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if strings.Join(b.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command = %v", b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", b.RunSeconds)
	}
	// A full measurement set, 4 runs plus 22 per workload, must finish
	// within 3420 s; allow 10 s per run for building, set-up, warm-up and
	// tails.
	if est := (4 + 22*len(b.Workloads)) * (b.RunSeconds + 10); est > 3420 {
		t.Errorf("estimated %d s for a full set, over 3420 s", est)
	}

	var names []string
	for _, w := range b.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %q: why must be one line of 1-200 characters", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares workloads %v; the code has %d", names, len(workloads))
	}

	e2e := declared(endToEnd)
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the code prints %d", len(b.EndToEnd), len(e2e))
	}
	maxBound := 0.0
	for _, m := range b.EndToEnd {
		if unit, ok := e2e[m.Name]; !ok || unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed with unit %q", m.Name, m.Unit, unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end-to-end %s: better = %q", m.Name, m.Better)
		}
		maxBound = max(maxBound, m.Bound)
	}
	setup := false
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower" && m.Bound == maxBound
		}
	}
	if !setup {
		t.Error("setup_s must be declared in s, lower is better, with the largest bound")
	}

	layer := declared(perLayer)
	if len(b.PerLayer) != len(layer) || len(layer) > 128 {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the code prints %d", len(b.PerLayer), len(layer))
	}
	for _, m := range b.PerLayer {
		if unit, ok := layer[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer %s (%s): printed with unit %q", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer %s: better = %q", m.Name, m.Better)
		}
	}

	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", d.name, d.unit)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload %q: bad or repeated name", w.name)
		}
		seen[w.name] = true
	}
}

// checkOutput parses every JSON line a run printed and checks it carries
// exactly the metrics of defs, with their units.
func checkOutput(t *testing.T, out []byte, defs []metricDef, runs int) []result {
	t.Helper()
	want := declared(defs)
	var results []result
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		var r result
		dec := json.NewDecoder(strings.NewReader(sc.Text()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("output line %q: %v", sc.Text(), err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("run: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("printed %d metrics, want %d", len(r.Metrics), len(want))
		}
		for name, m := range r.Metrics {
			if unit, ok := want[name]; !ok || unit != m.Unit {
				t.Errorf("printed %s in %q; declared unit %q", name, m.Unit, unit)
			}
		}
		results = append(results, r)
	}
	if len(results) != runs {
		t.Fatalf("%d result lines, want %d", len(results), runs)
	}
	return results
}

// TestSmoke runs the real binaries briefly: each serve workload end to
// end, serve-small traced, and one reproduction checked against
// results/. The serve workloads are scaled so a one-second open loop
// still has 1000 samples: 1000 req/s, and serve-large with small sorts.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches the real binaries")
	}
	ctx := context.Background()
	o := options{root: "..", work: t.TempDir(), seed: 7, seconds: 1100 * time.Millisecond}
	var scaled []*workload
	for _, w := range workloads {
		if w.pool == nil {
			continue
		}
		c := *w
		c.rate = 1000
		if c.name == "serve-large" {
			c.pool = smallPool
		}
		scaled = append(scaled, &c)
	}
	var out bytes.Buffer
	if code, err := runAll(ctx, o, scaled, false, &out); err != nil || code != 0 {
		t.Fatalf("end-to-end smoke: code %d, %v", code, err)
	}
	checkOutput(t, out.Bytes(), endToEnd, len(scaled))

	out.Reset()
	o.seconds = 2 * time.Second
	if code, err := runAll(ctx, o, scaled[:1], true, &out); err != nil || code != 0 {
		t.Fatalf("traced smoke: code %d, %v", code, err)
	}
	r := checkOutput(t, out.Bytes(), perLayer, 1)[0]
	if share := r.Metrics["engine.direct_share"].Value; share != 0 {
		t.Errorf("serve-small as shipped: direct share %v, want 0 (tracing keeps sorts on the simulator)", share)
	}
	data, err := os.ReadFile(filepath.Join(o.work, "trace-serve-small-7.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace file: %d events, %v", len(doc.TraceEvents), err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || ev.Name == "" {
			t.Fatalf("trace event %+v is not a complete event", ev)
		}
	}

	bins, err := build(ctx, o.root, filepath.Join(o.work, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	o.seed = goldenSeed
	run, err := reproduceOnce(ctx, bins.reproduce, o.work, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReproduction(o, run.out, ""); err != nil {
		t.Error(err)
	}
}

func TestSameTree(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	write := func(dir, name, content string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(a, "x.txt", "1")
	write(b, "x.txt", "1")
	if err := sameTree(a, b); err != nil {
		t.Errorf("identical trees: %v", err)
	}
	write(b, "x.txt", "2")
	if sameTree(a, b) == nil {
		t.Error("differing file accepted")
	}
	write(b, "x.txt", "1")
	write(b, "y.txt", "")
	if sameTree(a, b) == nil {
		t.Error("extra file accepted")
	}
	if sameTree(b, a) == nil {
		t.Error("missing file accepted")
	}
}

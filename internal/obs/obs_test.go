package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestBucketIndexEdges pins the histogram bucketing scheme at its edge
// cases: bucket 0 holds v <= 1, bucket i covers (2^(i-1), 2^i], and the
// final bucket absorbs everything beyond the last bound.
func TestBucketIndexEdges(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0},
		{-1, 0},
		{0, 0},
		{1, 0}, // bucket 0 covers v <= 1 (bound 2^0)
		{2, 1},
		{3, 2},
		{4, 2},
		{5, 3},
		{8, 3},
		{9, 4},
		{1 << 20, 20},
		{1<<20 + 1, 21},
		{1 << 62, 62},
		{1<<62 + 1, 63},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Invariant: every positive v satisfies boundOf(i-1) < v <= boundOf(i)
	// for its bucket i (with the final bucket unbounded above).
	for _, v := range []int64{1, 2, 3, 7, 8, 9, 1023, 1024, 1025} {
		i := bucketIndex(v)
		if v > boundOf(i) && i != histBuckets-1 {
			t.Errorf("v=%d above its bucket bound %d", v, boundOf(i))
		}
		if i > 0 && v <= boundOf(i-1) {
			t.Errorf("v=%d at or below previous bound %d", v, boundOf(i-1))
		}
	}
}

// TestHistogramObserve checks count/sum bookkeeping including the
// negative clamp.
func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []int64{-5, 0, 1, 100, 1 << 40} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if want := int64(0 + 0 + 1 + 100 + 1<<40); h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
}

// TestCounterSemantics pins that counters ignore negative adds and
// gauges accept them.
func TestCounterSemantics(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	c.Inc()
	if c.Value() != 6 {
		t.Fatalf("counter = %d, want 6", c.Value())
	}
	var g Gauge
	g.Add(5)
	g.Add(-3)
	g.Set(-7)
	if g.Value() != -7 {
		t.Fatalf("gauge = %d, want -7", g.Value())
	}
}

// TestRegistryIdempotent checks that re-registering a (name, label) pair
// returns the same instrument instead of forking a second series.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "other help ignored")
	if a != b {
		t.Fatal("re-registered counter is a different instance")
	}
	la := r.LabeledCounter("y_total", "h", "phase", "p1")
	lb := r.LabeledCounter("y_total", "h", "phase", "p2")
	lc := r.LabeledCounter("y_total", "h", "phase", "p1")
	if la == lb {
		t.Fatal("different labels share an instance")
	}
	if la != lc {
		t.Fatal("same label forked a second instance")
	}
}

// TestWritePrometheusFormat parses the exposition output line by line:
// every non-comment line must be `name{labels} value` with numeric value,
// every family must carry HELP and TYPE headers, histogram buckets must
// be cumulative and capped by +Inf == count.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_requests_total", "requests").Add(7)
	r.Gauge("t_pool_in_use", "pool").Set(3)
	h := r.Histogram("t_latency_ns", "latency")
	for _, v := range []int64{1, 3, 3, 900, 0} {
		h.Observe(v)
	}
	r.LabeledCounter("t_phase_total", "phases", "phase", "a").Add(1)
	r.LabeledCounter("t_phase_total", "phases", "phase", "b").Add(2)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	seenHelp := map[string]bool{}
	seenType := map[string]bool{}
	values := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			seenHelp[strings.Fields(rest)[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				t.Fatalf("bad TYPE line %q", line)
			}
			switch f[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("bad TYPE %q in %q", f[1], line)
			}
			seenType[f[0]] = true
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		var v int64
		if _, err := fmt.Sscanf(line[i+1:], "%d", &v); err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		values[line[:i]] = v
	}
	for _, fam := range []string{"t_requests_total", "t_pool_in_use", "t_latency_ns", "t_phase_total"} {
		if !seenHelp[fam] || !seenType[fam] {
			t.Errorf("family %s missing HELP or TYPE", fam)
		}
	}
	if values["t_requests_total"] != 7 || values["t_pool_in_use"] != 3 {
		t.Errorf("scalar values wrong: %v", values)
	}
	if values[`t_phase_total{phase="a"}`] != 1 || values[`t_phase_total{phase="b"}`] != 2 {
		t.Errorf("labelled values wrong: %v", values)
	}
	if values["t_latency_ns_count"] != 5 || values["t_latency_ns_sum"] != 907 {
		t.Errorf("histogram summary wrong: %v", values)
	}
	if values[`t_latency_ns_bucket{le="+Inf"}`] != 5 {
		t.Errorf("+Inf bucket != count: %v", values)
	}
	// Cumulative: the le="4" bucket holds observations 0,1,3,3.
	if values[`t_latency_ns_bucket{le="4"}`] != 4 {
		t.Errorf("cumulative bucket wrong: %v", values)
	}
	// Deterministic output: a second render is byte-identical.
	var b2 strings.Builder
	r.WritePrometheus(&b2)
	if b2.String() != out {
		t.Error("WritePrometheus output is not deterministic")
	}
}

// TestSnapshot checks the JSON-friendly view matches the instruments.
func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("s_total", "c").Add(9)
	h := r.Histogram("s_hist", "h")
	h.Observe(5)
	h.Observe(6)
	snap := r.Snapshot()
	if sv := snap["s_total"]; sv.Kind != "counter" || sv.Value != 9 {
		t.Fatalf("counter snapshot %+v", sv)
	}
	sv := snap["s_hist"]
	if sv.Kind != "histogram" || sv.Count != 2 || sv.Sum != 11 {
		t.Fatalf("histogram snapshot %+v", sv)
	}
	if sv.Buckets["8"] != 2 {
		t.Fatalf("histogram buckets %+v", sv.Buckets)
	}
}

// TestConcurrentMutation hammers one registry from many goroutines; run
// under -race this pins the lock-free instruments and the registration
// path. Totals must come out exact — atomic adds lose nothing.
func TestConcurrentMutation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "c")
	h := r.Histogram("cc_hist", "h")
	ps := NewPhaseSet(r)
	const workers, each = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(int64(i))
				ps.Observe(PhaseStep7Exchange, 2, 1)
				// Concurrent registration of the same name must stay safe.
				r.Counter("cc_total", "c")
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*each {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*each)
	}
	if h.Count() != workers*each {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*each)
	}
	if got := ps.VTime(PhaseStep7Exchange); got != 2*workers*each {
		t.Fatalf("phase vtime = %d, want %d", got, 2*workers*each)
	}
}

// TestPhaseSetNil pins that a nil PhaseSet is a safe no-op — the
// disabled-path contract every kernel call site relies on.
func TestPhaseSetNil(t *testing.T) {
	var ps *PhaseSet
	ps.Observe(PhaseStep3Local, 10, 10) // must not panic
}

// TestPhaseLabels pins the phase label strings — they are public metric
// API once scraped, so renames are breaking changes.
func TestPhaseLabels(t *testing.T) {
	want := map[Phase]string{
		PhaseStep2Distribute: "step2_distribute",
		PhaseStep3Local:      "step3_local_sort",
		PhaseStep3Intra:      "step3_intra_merge",
		PhaseStep7Exchange:   "step7_exchange",
		PhaseStep8Resort:     "step8_resort",
		PhaseSelLocalSort:    "selection_local_sort",
		PhaseSelReduce:       "selection_reduce",
	}
	for p, label := range want {
		if p.String() != label {
			t.Errorf("phase %d label %q, want %q", p, p.String(), label)
		}
	}
	if Phase(99).String() != "unknown" {
		t.Error("out-of-range phase label")
	}
}

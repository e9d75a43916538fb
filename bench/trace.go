package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"time"
)

// perLayer declares the metrics a traced run prints, named after the
// repository's modules. A layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"serve.http_floor_us", "us"},
	{"serve.http_transfer_us", "us"},
	{"serve.json_decode_us", "us"},
	{"serve.json_encode_us", "us"},
	{"serve.body_kib", "KiB"},
	{"serve.residual_us", "us"},
	{"facade.sort_us", "us"},
	{"facade.sort_p99_us", "us"},
	{"engine.do_us", "us"},
	{"engine.direct_share", "ratio"},
	{"engine.fused_depth", "count"},
	{"engine.queue_wait_p99_us", "us"},
	{"engine.plan_hit_ratio", "ratio"},
	{"partition.search_us", "us"},
	{"partition.lookup_us", "us"},
	{"direct.compile_us", "us"},
	{"direct.exec_us", "us"},
	{"direct.predict_us", "us"},
	{"machine.ftsort_us", "us"},
	{"machine.topk_us", "us"},
	{"machine.messages", "count"},
	{"machine.comparisons", "count"},
	{"transport.encode_us", "us"},
	{"transport.decode_us", "us"},
	{"transport.rtt_us", "us"},
	{"transport.self_us", "us"},
	{"cluster.do_us", "us"},
	{"cluster.spills", "count"},
	{"cluster.sheds", "count"},
	{"cluster.reroutes", "count"},
	{"experiments.table1_s", "s"},
	{"experiments.table2_s", "s"},
	{"experiments.fig7_s", "s"},
	{"experiments.ablations_s", "s"},
	{"proc.allocs_per_req", "count"},
	{"proc.gc_per_1k_req", "count"},
	{"ledger.e2e_p50_us", "us"},
	{"ledger.layer_sum_us", "us"},
	{"ledger.trace_overhead_us", "us"},
}

// span is one timed call: a layer entry point called from the
// benchmark's own code, or one whole request.
type span struct {
	name   string
	req    int // request sequence number
	parent string
	track  int // 1: HTTP pass, 2: in-process replay
	start  time.Time
	end    time.Time
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	spans []span
}

// add records a span and returns its duration in microseconds.
func (tr *tracer) add(name string, req int, parent string, track int, start, end time.Time) float64 {
	tr.spans = append(tr.spans, span{name: name, req: req, parent: parent, track: track, start: start, end: end})
	return us(end.Sub(start))
}

// since records a span that started at start and ends now.
func (tr *tracer) since(name string, req int, parent string, track int, start time.Time) float64 {
	return tr.add(name, req, parent, track, start, time.Now())
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans to path as Chrome trace-event JSON.
func (tr *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, len(tr.spans))
	for i, s := range tr.spans {
		cat, _, _ := strings.Cut(s.name, ".")
		events[i] = chromeEvent{
			Name: s.name, Cat: cat, Ph: "X", Pid: 1, Tid: s.track,
			Ts:   us(s.start.Sub(tr.t0)),
			Dur:  us(s.end.Sub(s.start)),
			Args: map[string]any{"req": s.req, "parent": s.parent},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pct returns the nearest-rank q-quantile of unsorted samples, without
// the thin-tail rule of the load phases: a per-layer figure is logged
// with its sample count instead.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

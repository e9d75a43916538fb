// Package obs is the repository's dependency-free observability core: a
// metrics registry of atomic counters, gauges, and log-scale histograms
// with Prometheus text-format exposition and a JSON-friendly snapshot.
//
// It exists because the simulator's north star is a production-shaped
// service: every run should be able to explain itself *live*, not only
// through the post-hoc trace recorder. The design constraints, in order:
//
//  1. The disabled path must be near-free. Hot-loop call sites guard on a
//     nil metric-set pointer; the machine's per-message path pays nothing
//     beyond the nil check it already had for tracing.
//  2. The enabled path must be cheap enough to leave on in production:
//     every mutation is a single atomic add (no locks, no maps, no
//     allocation), and high-frequency sources aggregate locally and flush
//     once per run.
//  3. No dependencies. Exposition is hand-rolled Prometheus text format
//     (version 0.0.4), which every Prometheus-compatible scraper accepts.
//
// Metrics are registered once (typically at package init or engine
// construction) against a Registry; Default is the process-wide registry
// cmd/serve exposes on GET /metrics.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is usable
// but unregistered; obtain registered counters from Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Negative n is ignored — counters only
// go up (use a Gauge for values that move both ways).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can move in both directions (pool occupancy,
// queue depth). The zero value is usable but unregistered.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metricKind discriminates registry entries for exposition.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered metric: a name, help text, optional fixed
// label pair, and the backing instrument.
type metric struct {
	name  string
	help  string
	label [2]string // {key, value}; empty key means unlabelled
	kind  metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics and renders them. All methods are safe for
// concurrent use; registration is expected to be rare (startup) and
// lookups to be cached by callers, so a plain mutex suffices.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byKey   map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// defaultRegistry is the process-wide registry behind Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry, the one cmd/serve exposes on
// GET /metrics. Library code that wants its metrics scraped without extra
// plumbing registers here.
func Default() *Registry { return defaultRegistry }

// key builds the uniqueness key for a (name, label) pair.
func key(name string, label [2]string) string {
	if label[0] == "" {
		return name
	}
	return name + "{" + label[0] + "=" + label[1] + "}"
}

// register adds m unless an identical (name, label) entry exists, in
// which case the existing entry is returned — registration is idempotent
// so independent components can share a metric by name.
func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(m.name, m.label)
	if exist, ok := r.byKey[k]; ok {
		return exist
	}
	r.metrics = append(r.metrics, m)
	r.byKey[k] = m
	return m
}

// Counter registers (or retrieves) the counter name with the given help
// text. Names follow Prometheus conventions: snake_case with a unit
// suffix (…_total for counters).
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(&metric{name: name, help: help, kind: kindCounter, counter: &Counter{}})
	return m.counter
}

// LabeledCounter registers (or retrieves) a counter carrying one fixed
// label pair — the registry's one concession to dimensionality, enough
// for phase- and kind-keyed families without a label-set allocator on the
// hot path.
func (r *Registry) LabeledCounter(name, help, labelKey, labelValue string) *Counter {
	m := r.register(&metric{name: name, help: help, kind: kindCounter,
		label: [2]string{labelKey, labelValue}, counter: &Counter{}})
	return m.counter
}

// Gauge registers (or retrieves) the gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(&metric{name: name, help: help, kind: kindGauge, gauge: &Gauge{}})
	return m.gauge
}

// LabeledGauge registers (or retrieves) a gauge carrying one fixed label
// pair — the gauge counterpart of LabeledCounter, used for per-shard
// families (one series per cluster shard) without a label-set allocator
// on the hot path.
func (r *Registry) LabeledGauge(name, help, labelKey, labelValue string) *Gauge {
	m := r.register(&metric{name: name, help: help, kind: kindGauge,
		label: [2]string{labelKey, labelValue}, gauge: &Gauge{}})
	return m.gauge
}

// Histogram registers (or retrieves) a log-scale histogram; see the
// Histogram type for the bucketing scheme. Document the observed unit in
// the help text (and, per Prometheus convention, in the name suffix).
func (r *Registry) Histogram(name, help string) *Histogram {
	m := r.register(&metric{name: name, help: help, kind: kindHistogram, hist: &Histogram{}})
	return m.hist
}

// LabeledHistogram registers (or retrieves) a histogram carrying one
// fixed label pair — the histogram counterpart of LabeledCounter, used
// for per-dimension families (one series per hypercube dimension).
func (r *Registry) LabeledHistogram(name, help, labelKey, labelValue string) *Histogram {
	m := r.register(&metric{name: name, help: help, kind: kindHistogram,
		label: [2]string{labelKey, labelValue}, hist: &Histogram{}})
	return m.hist
}

// SnapshotValue is one metric's state in a Snapshot.
type SnapshotValue struct {
	// Kind is "counter", "gauge", or "histogram".
	Kind string `json:"kind"`
	// Value is the scalar value for counters and gauges.
	Value int64 `json:"value,omitempty"`
	// Count and Sum summarize a histogram; Buckets maps upper bounds
	// (inclusive, power-of-two) to cumulative counts, omitting empty ones.
	Count   int64            `json:"count,omitempty"`
	Sum     int64            `json:"sum,omitempty"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot returns every registered metric's current state keyed by its
// exposition name (including the label, if any) — the JSON-friendly view
// cmd/serve embeds in /v1/metrics.
func (r *Registry) Snapshot() map[string]SnapshotValue {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	out := make(map[string]SnapshotValue, len(metrics))
	for _, m := range metrics {
		k := key(m.name, m.label)
		switch m.kind {
		case kindCounter:
			out[k] = SnapshotValue{Kind: "counter", Value: m.counter.Value()}
		case kindGauge:
			out[k] = SnapshotValue{Kind: "gauge", Value: m.gauge.Value()}
		case kindHistogram:
			count, sum, buckets := m.hist.snapshot()
			sv := SnapshotValue{Kind: "histogram", Count: count, Sum: sum}
			if len(buckets) > 0 {
				sv.Buckets = make(map[string]int64, len(buckets))
				cum := int64(0)
				for _, b := range buckets {
					cum += b.count
					sv.Buckets[fmt.Sprint(b.le)] = cum
				}
			}
			out[k] = sv
		}
	}
	return out
}

// WritePrometheus renders the registry in Prometheus text format 0.0.4
// into w. Metrics are grouped by name (labelled series of one family
// share a single HELP/TYPE header) and sorted for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.SliceStable(metrics, func(i, j int) bool {
		if metrics[i].name != metrics[j].name {
			return metrics[i].name < metrics[j].name
		}
		return metrics[i].label[1] < metrics[j].label[1]
	})
	lastName := ""
	for _, m := range metrics {
		if m.name != lastName {
			lastName = m.name
			fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
			fmt.Fprintf(w, "# TYPE %s %s\n", m.name, typeName(m.kind))
		}
		series := m.name
		if m.label[0] != "" {
			series = fmt.Sprintf("%s{%s=%q}", m.name, m.label[0], m.label[1])
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s %d\n", series, m.counter.Value())
		case kindGauge:
			fmt.Fprintf(w, "%s %d\n", series, m.gauge.Value())
		case kindHistogram:
			m.hist.writePrometheus(w, m.name, m.label)
		}
	}
}

// typeName maps a metric kind to its Prometheus TYPE keyword.
func typeName(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Package obs is the engine's observability substrate: a
// dependency-free metrics registry (atomic counters, gauges,
// fixed-bucket histograms, and label-partitioned counter families)
// rendered as Prometheus text exposition format, plus the per-node
// record every operator instance keeps and EXPLAIN ANALYZE and the
// tracer report.
//
// One Registry serves both surfaces the daemon exposes — the HTTP
// /metrics endpoint and the wire protocol's "stats" op — so the two
// can never disagree: Snapshot and WritePrometheus read the same
// atomics.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value. A gauge registered with
// NewGaugeFunc computes its value on read instead.
type Gauge struct {
	v  atomic.Int64
	fn func() int64
}

// Set stores the gauge's value. No-op for function gauges.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by delta. No-op for function gauges.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the gauge's current value.
func (g *Gauge) Load() int64 {
	if g.fn != nil {
		return g.fn()
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: bucket i counts observations v <= Bounds[i] (upper bounds are
// inclusive, so an observation exactly on a boundary lands in that
// boundary's bucket), with an implicit +Inf bucket at the end.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: inclusive upper edge
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns the per-bucket (non-cumulative) counts; the
// final element is the +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// CounterVec is a family of counters partitioned by one label
// (e.g. rows audited per table).
type CounterVec struct {
	label string
	mu    sync.RWMutex
	kids  map[string]*Counter
}

// With returns the counter for one label value, creating it on first
// use. Safe for concurrent callers.
func (v *CounterVec) With(labelValue string) *Counter {
	v.mu.RLock()
	c, ok := v.kids[labelValue]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.kids[labelValue]; ok {
		return c
	}
	c = &Counter{}
	v.kids[labelValue] = c
	return c
}

// Total sums the family's counters.
func (v *CounterVec) Total() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var t int64
	for _, c := range v.kids {
		t += c.Load()
	}
	return t
}

// metricKind discriminates registered metric types for rendering.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterVec
)

// metric is one registry entry. Name is the Prometheus exposition
// name; empty Name means the metric appears only in Snapshot under its
// alias (used for values whose Prometheus identity is carried by a
// labeled family instead). Alias is the short key the wire "stats" op
// reports; empty Alias means Name.
type metric struct {
	name  string
	alias string
	help  string
	kind  metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	vec     *CounterVec
}

func (m *metric) snapshotKey() string {
	if m.alias != "" {
		return m.alias
	}
	return m.name
}

// Registry holds a process's metrics in registration order.
type Registry struct {
	start time.Time

	mu      sync.RWMutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry creates an empty registry. Its creation time is the
// epoch for the uptime_seconds gauge (see NewUptimeGauge).
func NewRegistry() *Registry {
	return &Registry{start: time.Now(), byName: make(map[string]*metric)}
}

// Start returns the registry's creation time.
func (r *Registry) Start() time.Time { return r.start }

// register adds m, or returns the existing entry when an identically
// named metric of the same kind is already present (so two servers
// over one engine share counters instead of panicking).
func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := m.name
	if key == "" {
		key = "alias:" + m.alias
	}
	if prev, ok := r.byName[key]; ok {
		if prev.kind != m.kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different type", key))
		}
		return prev
	}
	r.byName[key] = m
	r.metrics = append(r.metrics, m)
	return m
}

// NewCounter registers a counter. name is the Prometheus name (may be
// empty for snapshot-only metrics); alias is the wire stats key
// (defaults to name).
func (r *Registry) NewCounter(name, alias, help string) *Counter {
	m := r.register(&metric{name: name, alias: alias, help: help, kind: kindCounter, counter: &Counter{}})
	return m.counter
}

// NewGauge registers a settable gauge.
func (r *Registry) NewGauge(name, alias, help string) *Gauge {
	m := r.register(&metric{name: name, alias: alias, help: help, kind: kindGauge, gauge: &Gauge{}})
	return m.gauge
}

// NewGaugeFunc registers a gauge whose value is computed on read.
func (r *Registry) NewGaugeFunc(name, alias, help string, fn func() int64) {
	r.register(&metric{name: name, alias: alias, help: help, kind: kindGauge, gauge: &Gauge{fn: fn}})
}

// NewUptimeGauge registers uptime_seconds against the registry's
// creation time.
func (r *Registry) NewUptimeGauge(name, alias string) {
	r.NewGaugeFunc(name, alias, "Seconds since the process's metrics registry was created.",
		func() int64 { return int64(time.Since(r.start).Seconds()) })
}

// NewHistogram registers a fixed-bucket histogram. bounds must be
// sorted ascending; they are the inclusive upper edges of the buckets.
func (r *Registry) NewHistogram(name, alias, help string, bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds are not sorted", name))
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	m := r.register(&metric{name: name, alias: alias, help: help, kind: kindHistogram, hist: h})
	return m.hist
}

// NewCounterVec registers a counter family partitioned by one label.
func (r *Registry) NewCounterVec(name, alias, help, label string) *CounterVec {
	v := &CounterVec{label: label, kids: make(map[string]*Counter)}
	m := r.register(&metric{name: name, alias: alias, help: help, kind: kindCounterVec, vec: v})
	return m.vec
}

// LatencyBuckets is the default upper-bound set for the engine's
// latency histograms: sub-microsecond in-memory operations up through
// multi-second analytical queries (seconds).
var LatencyBuckets = []float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Snapshot returns every metric's current value keyed by its wire
// alias: counters and gauges directly, histograms as <alias>_count,
// counter families as one <alias>_<labelValue> entry per label value
// plus the <alias> total.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.RLock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.RUnlock()
	out := make(map[string]int64, len(metrics))
	for _, m := range metrics {
		key := m.snapshotKey()
		switch m.kind {
		case kindCounter:
			out[key] = m.counter.Load()
		case kindGauge:
			out[key] = m.gauge.Load()
		case kindHistogram:
			out[key+"_count"] = m.hist.Count()
		case kindCounterVec:
			m.vec.mu.RLock()
			for lv, c := range m.vec.kids {
				out[key+"_"+sanitizeKey(lv)] = c.Load()
			}
			m.vec.mu.RUnlock()
			out[key] = m.vec.Total()
		}
	}
	return out
}

// sanitizeKey lowers a label value into a stats-map key fragment.
func sanitizeKey(s string) string {
	var b strings.Builder
	for _, c := range strings.ToLower(s) {
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). Metrics registered with an empty Prometheus
// name are skipped; label values are sorted for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.RUnlock()
	var b strings.Builder
	for _, m := range metrics {
		if m.name == "" {
			continue
		}
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, strings.ReplaceAll(m.help, "\n", " "))
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", m.name, m.name, m.counter.Load())
		case kindGauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", m.name, m.name, m.gauge.Load())
		case kindHistogram:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", m.name)
			var cum int64
			for i, bound := range m.hist.bounds {
				cum += m.hist.counts[i].Load()
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, formatBound(bound), cum)
			}
			cum += m.hist.counts[len(m.hist.bounds)].Load()
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, strconv.FormatFloat(m.hist.Sum(), 'g', -1, 64))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, m.hist.Count())
		case kindCounterVec:
			fmt.Fprintf(&b, "# TYPE %s counter\n", m.name)
			m.vec.mu.RLock()
			labels := make([]string, 0, len(m.vec.kids))
			for lv := range m.vec.kids {
				labels = append(labels, lv)
			}
			sort.Strings(labels)
			for _, lv := range labels {
				fmt.Fprintf(&b, "%s{%s=%q} %d\n", m.name, m.vec.label, lv, m.vec.kids[lv].Load())
			}
			m.vec.mu.RUnlock()
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatBound renders a bucket bound the way Prometheus clients do.
func formatBound(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// NodeStats is one plan operator's record: what flowed through it
// during one execution of an operator instance. Every run counts into
// it, observed or not; only Wall waits for a timed run (a sampled
// statement or EXPLAIN ANALYZE). Under parallel execution each worker
// counts into a private NodeStats that Add folds into the node's
// record at close, so the fields themselves stay plain.
type NodeStats struct {
	// Runs counts the operator's starts: one per statement for most
	// operators, one per outer row for a correlated subquery's, one per
	// worker inside a parallel fragment. Zero means never executed.
	Runs int64
	// RowsOut counts rows the operator emitted.
	RowsOut int64
	// Batches counts non-empty NextBatch deliveries.
	Batches int64
	// Wall is cumulative wall time spent inside the operator's reset
	// (where joins build, aggregates fold and sorts sort) and NextBatch
	// calls, children included (Postgres-style "actual time"). Under
	// parallel execution worker walls sum, so a parallel operator can
	// report more wall time than the query took. Zero unless timed.
	Wall time.Duration

	// Audit-operator extras (zero elsewhere): probes presented to the
	// sink or elided on a sketch-refuted chunk, and probes that hit the
	// sensitive-ID set.
	Probes, Hits int64

	// Parallel-execution extras: morsels claimed by this operator's
	// scan cursor, and the worker-pool size of a Gather exchange.
	Morsels, Workers int64

	// Scan extras: rows read from storage, chunks actually read, and
	// chunks refuted by zone maps against the pushed predicate or by
	// sensitive-ID sketches against a fused audit expression (probe
	// elision or, for an audit-only run, a full skip).
	RowsScanned, ChunksScanned              int64
	ChunksSkippedFilter, ChunksSkippedAudit int64
	// PredInterpreted counts rows whose scan or filter predicate the
	// interpreter evaluated because the compiled fast path did not
	// claim them.
	PredInterpreted int64

	// Hash-join extra: runs that built the left input (an inner join
	// whose left input had the smaller estimate) instead of the right.
	BuildLeft int64
}

// Add folds o into s, field by field.
func (s *NodeStats) Add(o *NodeStats) {
	s.Runs += o.Runs
	s.RowsOut += o.RowsOut
	s.Batches += o.Batches
	s.Wall += o.Wall
	s.Probes += o.Probes
	s.Hits += o.Hits
	s.Morsels += o.Morsels
	s.Workers += o.Workers
	s.RowsScanned += o.RowsScanned
	s.ChunksScanned += o.ChunksScanned
	s.ChunksSkippedFilter += o.ChunksSkippedFilter
	s.ChunksSkippedAudit += o.ChunksSkippedAudit
	s.PredInterpreted += o.PredInterpreted
	s.BuildLeft += o.BuildLeft
}

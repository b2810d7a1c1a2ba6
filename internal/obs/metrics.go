package obs

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"regmutex/internal/sim"
)

// Counter is a monotonically increasing metric handle (thread-safe).
type Counter struct{ v int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { atomic.AddInt64(&c.v, d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 { return atomic.LoadInt64(&c.v) }

// Gauge is a last-value-wins metric handle (thread-safe).
type Gauge struct{ bits uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { atomic.StoreUint64(&g.bits, math.Float64bits(v)) }

// Add adjusts the gauge by d (atomically; use for up/down quantities
// like in-flight request counts).
func (g *Gauge) Add(d float64) {
	for {
		old := atomic.LoadUint64(&g.bits)
		next := math.Float64bits(math.Float64frombits(old) + d)
		if atomic.CompareAndSwapUint64(&g.bits, old, next) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(atomic.LoadUint64(&g.bits)) }

// Registry is a concurrent registry of named counters, gauges, and
// histograms. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Concurrent callers racing on the same name always get one shared
// instance.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Histograms snapshots every registered histogram by name (the
// bucket-level view WritePrometheus and benchreg need; the flat
// Snapshot carries only derived quantiles).
func (r *Registry) Histograms() map[string]HistogramSnapshot {
	r.mu.Lock()
	hs := make([]*Histogram, 0, len(r.histograms))
	names := make([]string, 0, len(r.histograms))
	for name, h := range r.histograms {
		names = append(names, name)
		hs = append(hs, h)
	}
	r.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(hs))
	for i, h := range hs {
		out[names[i]] = h.Snapshot()
	}
	return out
}

// Metric is one snapshotted registry entry.
type Metric struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // "counter" | "gauge" | "histogram"
	Value float64 `json:"value"`
}

// MetricsReport is a point-in-time snapshot of a Registry, sorted by
// metric name.
type MetricsReport struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() MetricsReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out MetricsReport
	for name, c := range r.counters {
		out.Metrics = append(out.Metrics, Metric{Name: name, Kind: "counter", Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out.Metrics = append(out.Metrics, Metric{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, h := range r.histograms {
		s := h.Snapshot()
		add := func(suffix string, v float64) {
			out.Metrics = append(out.Metrics, Metric{Name: name + suffix, Kind: "histogram", Value: v})
		}
		add(".count", float64(s.Count))
		add(".sum", s.Sum)
		add(".max", s.Max)
		add(".p50", s.Quantile(0.50))
		add(".p90", s.Quantile(0.90))
		add(".p99", s.Quantile(0.99))
	}
	sort.Slice(out.Metrics, func(i, j int) bool { return out.Metrics[i].Name < out.Metrics[j].Name })
	return out
}

// Get returns the named metric's value.
func (m MetricsReport) Get(name string) (float64, bool) {
	for _, x := range m.Metrics {
		if x.Name == name {
			return x.Value, true
		}
	}
	return 0, false
}

// WriteJSON exports the report as indented JSON.
func (m MetricsReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(m)
}

// WriteCSV exports the report as name,kind,value rows with a header.
func (m MetricsReport) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"name", "kind", "value"}); err != nil {
		return err
	}
	for _, x := range m.Metrics {
		if err := cw.Write([]string{x.Name, x.Kind, strconv.FormatFloat(x.Value, 'g', -1, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMetricsDir writes the report as dir/metrics.json and
// dir/metrics.csv, creating dir when it does not exist.
func WriteMetricsDir(dir string, m MetricsReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "metrics.json"), m.WriteJSON); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, "metrics.csv"), m.WriteCSV)
}

// RecordStats publishes one finished run's Stats under the given prefix
// (conventionally "<workload>/<policy>"), one gauge per sim.StatNames
// measure, and bumps the sim.runs counter. Safe to call concurrently
// from pool workers.
func RecordStats(r *Registry, prefix string, st sim.Stats) {
	if r == nil {
		return
	}
	r.Counter("sim.runs").Inc()
	for _, name := range sim.StatNames() {
		v, _ := st.Value(name)
		r.Gauge(prefix + "." + name).Set(v)
	}
}

package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Span is one timed stage of a request's life, tied to a trace by the
// request ID the HTTP middleware threads through the stack. Spans are
// wall-clock (unlike TraceEvent, whose timeline is simulated cycles):
// the fleet exporter rebases them onto a common microsecond origin when
// merging router and instance recordings into one Chrome trace.
type Span struct {
	// Trace groups the spans of one client-observed request; it equals
	// the X-Request-Id minted by the first hop unless the caller sent
	// an explicit X-Trace-Context.
	Trace string `json:"trace"`
	// ID names this span within the trace; recorders mint them with a
	// per-process prefix, and the fleet merge qualifies instance spans
	// with the instance name, so merged traces stay collision-free.
	ID string `json:"id"`
	// Parent is the enclosing span's ID ("" for the root).
	Parent string `json:"parent,omitempty"`
	// Stage is the lifecycle stage: accept, queue, run, stream on an
	// instance; route, attempt, backoff, failover on the router.
	Stage string `json:"stage"`
	// Proc is the recording process lane ("router", "gpusimd :port");
	// it becomes the Chrome pid when exported.
	Proc string `json:"proc,omitempty"`
	// Class is the job's SLO class, for per-class breakdown tables.
	Class string `json:"class,omitempty"`
	// Note carries stage detail: the instance an attempt hit, the
	// error that triggered a failover, the attempt ordinal.
	Note  string    `json:"note,omitempty"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// Dur returns the span's duration (zero for instants like failover).
func (s Span) Dur() time.Duration {
	if s.End.Before(s.Start) {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Span stage names. Instances record the first four; the router records
// the rest.
const (
	StageAccept   = "accept"
	StageQueue    = "queue"
	StageRun      = "run"
	StageStream   = "stream"
	StageRoute    = "route"
	StageAttempt  = "attempt"
	StageBackoff  = "backoff"
	StageFailover = "failover"
)

// DefaultSpanCap is the recorder capacity NewSpanRecorder(0, ...) picks.
const DefaultSpanCap = 4096

// SpanRecorder is a bounded, thread-safe ring of completed spans. It is
// cheap enough to stay always-on: recording is one mutex'd slice write,
// and the ring drops the oldest trace's spans once full.
type SpanRecorder struct {
	prefix string
	idSeq  atomic.Int64
	ring   ring[Span]
}

// NewSpanRecorder creates a recorder holding up to capacity spans
// (DefaultSpanCap when capacity <= 0). prefix namespaces the IDs it
// mints (e.g. "r" on the router, "i0" on an instance) so spans from
// different processes never collide in a merged trace.
func NewSpanRecorder(capacity int, prefix string) *SpanRecorder {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &SpanRecorder{prefix: prefix, ring: newRing[Span](capacity)}
}

// NextID mints a process-unique span ID.
func (r *SpanRecorder) NextID() string {
	return fmt.Sprintf("%s-%d", r.prefix, r.idSeq.Add(1))
}

// Record stores a completed span, minting an ID if the caller left it
// empty and overwriting the oldest span once the ring is full.
func (r *SpanRecorder) Record(s Span) {
	if s.ID == "" {
		s.ID = r.NextID()
	}
	r.ring.add(s)
}

// Dropped reports how many spans were overwritten by newer ones.
func (r *SpanRecorder) Dropped() int64 {
	_, d := r.ring.stats()
	return d
}

// All returns the retained spans sorted by start time (ID as the
// tiebreak, so the order is stable for equal timestamps).
func (r *SpanRecorder) All() []Span {
	return r.ByTrace("")
}

// ByTrace returns the retained spans of one trace ("" for all), sorted
// by start time then ID.
func (r *SpanRecorder) ByTrace(trace string) []Span {
	var keep func(*Span) bool
	if trace != "" {
		keep = func(s *Span) bool { return s.Trace == trace }
	}
	out := r.ring.items(keep)
	SortSpans(out)
	return out
}

// SortSpans orders spans by start time, then process, then ID — the
// canonical order merged fleet traces are emitted in.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		if spans[i].Proc != spans[j].Proc {
			return spans[i].Proc < spans[j].Proc
		}
		return spans[i].ID < spans[j].ID
	})
}

// TraceContextHeader carries "traceID/parentSpanID" between the router
// and its instances so an instance's spans nest under the router
// attempt that submitted the job.
const TraceContextHeader = "X-Trace-Context"

// FormatTraceContext renders the X-Trace-Context header value.
func FormatTraceContext(trace, parent string) string {
	if parent == "" {
		return trace
	}
	return trace + "/" + parent
}

// ParseTraceContext splits an X-Trace-Context header value into trace
// ID and parent span ID (parent may be absent).
func ParseTraceContext(v string) (trace, parent string) {
	v = strings.TrimSpace(v)
	if i := strings.IndexByte(v, '/'); i >= 0 {
		return v[:i], v[i+1:]
	}
	return v, ""
}

type traceCtxKey struct{}

type traceCtx struct{ trace, parent string }

// WithTraceContext tags ctx with a trace ID and parent span ID so
// layers that only see the context (e.g. the retry loop's backoff
// sleeps) can still attribute their spans.
func WithTraceContext(ctx context.Context, trace, parent string) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, traceCtx{trace, parent})
}

// TraceFromContext returns the trace ID and parent span ID tagged by
// WithTraceContext, or ok=false.
func TraceFromContext(ctx context.Context) (trace, parent string, ok bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(traceCtx)
	return tc.trace, tc.parent, ok
}

// SpanEvents converts wall-clock spans into TraceEvents on a shared
// microsecond timeline (origin = the earliest span start) so
// WriteChromeTrace can export a merged fleet trace. Each process keeps
// its own Chrome lane; within a process, each trace gets one track, so
// nested stages render as stacked slices in Perfetto. Zero-duration
// spans (failover marks) become instants.
func SpanEvents(spans []Span) []TraceEvent {
	if len(spans) == 0 {
		return nil
	}
	base := spans[0].Start
	for _, s := range spans[1:] {
		if s.Start.Before(base) {
			base = s.Start
		}
	}
	evs := make([]TraceEvent, 0, len(spans))
	for _, s := range spans {
		name := s.Stage
		if s.Note != "" {
			name = s.Stage + " " + s.Note
		}
		proc := s.Proc
		if proc == "" {
			proc = "unknown"
		}
		ev := TraceEvent{
			Name:  name,
			Cat:   "span",
			Proc:  proc,
			Track: s.Trace,
			Cycle: s.Start.Sub(base).Microseconds(),
			Value: -1,
		}
		if d := s.Dur(); d > 0 {
			ev.Phase = PhaseSpan
			ev.Dur = d.Microseconds()
			if ev.Dur == 0 {
				ev.Dur = 1 // sub-µs spans still render as slices
			}
		} else {
			ev.Phase = PhaseInstant
		}
		evs = append(evs, ev)
	}
	return evs
}

// StageRow is one line of the per-stage latency breakdown: the
// distribution of time a class's requests spent in one stage.
type StageRow struct {
	Class string        `json:"class"`
	Stage string        `json:"stage"`
	Count int           `json:"count"`
	P50   time.Duration `json:"p50"`
	P99   time.Duration `json:"p99"`
	Max   time.Duration `json:"max"`
}

// breakdownStages is the canonical row order: the client-observed
// end-to-end first, then its route/queue/run/stream decomposition.
var breakdownStages = []string{"e2e", StageRoute, StageQueue, StageRun, StageStream}

// Breakdown decomposes each trace's end-to-end latency into
// route/queue/run/stream components and aggregates p50/p99 per SLO
// class. The e2e of a trace is the wall span from its earliest start
// to its latest end; queue/run/stream sum that trace's instance spans
// of the stage; route is the residual (e2e minus the instance stages,
// clamped at zero) — router overhead, retries, and backoff combined.
func Breakdown(spans []Span) []StageRow {
	type acc struct {
		class                   string
		start, end              time.Time
		queue, run, stream, e2e time.Duration
	}
	traces := map[string]*acc{}
	var order []string
	for _, s := range spans {
		a := traces[s.Trace]
		if a == nil {
			a = &acc{start: s.Start, end: s.End}
			traces[s.Trace] = a
			order = append(order, s.Trace)
		}
		if s.Start.Before(a.start) {
			a.start = s.Start
		}
		if s.End.After(a.end) {
			a.end = s.End
		}
		if a.class == "" && s.Class != "" {
			a.class = s.Class
		}
		switch s.Stage {
		case StageQueue:
			a.queue += s.Dur()
		case StageRun:
			a.run += s.Dur()
		case StageStream:
			a.stream += s.Dur()
		}
	}
	byClass := map[string]map[string][]time.Duration{}
	for _, id := range order {
		a := traces[id]
		a.e2e = a.end.Sub(a.start)
		route := a.e2e - a.queue - a.run - a.stream
		if route < 0 {
			route = 0
		}
		class := a.class
		if class == "" {
			class = "default"
		}
		m := byClass[class]
		if m == nil {
			m = map[string][]time.Duration{}
			byClass[class] = m
		}
		m["e2e"] = append(m["e2e"], a.e2e)
		m[StageRoute] = append(m[StageRoute], route)
		m[StageQueue] = append(m[StageQueue], a.queue)
		m[StageRun] = append(m[StageRun], a.run)
		m[StageStream] = append(m[StageStream], a.stream)
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var rows []StageRow
	for _, c := range classes {
		for _, stage := range breakdownStages {
			ds := byClass[c][stage]
			if len(ds) == 0 {
				continue
			}
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
			rows = append(rows, StageRow{
				Class: c,
				Stage: stage,
				Count: len(ds),
				P50:   NearestRank(ds, 0.50),
				P99:   NearestRank(ds, 0.99),
				Max:   ds[len(ds)-1],
			})
		}
	}
	return rows
}

// NearestRank returns the q-quantile of sorted by the nearest-rank rule:
// an exact sorted element, no interpolation, so results are reproducible
// across platforms. An empty slice gives the zero value.
func NearestRank[T any](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

// WriteBreakdown renders the breakdown rows as an aligned text table.
func WriteBreakdown(w io.Writer, rows []StageRow) error {
	if _, err := fmt.Fprintf(w, "%-12s %-8s %6s %12s %12s %12s\n",
		"class", "stage", "count", "p50", "p99", "max"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-12s %-8s %6d %12s %12s %12s\n",
			r.Class, r.Stage, r.Count,
			r.P50.Round(time.Microsecond),
			r.P99.Round(time.Microsecond),
			r.Max.Round(time.Microsecond)); err != nil {
			return err
		}
	}
	return nil
}

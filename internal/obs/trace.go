package obs

import "sync"

// Phase classifies a trace event, mirroring the Chrome trace-event
// phases the exporter emits.
type Phase byte

const (
	// PhaseSpan is a duration event (Chrome ph "X").
	PhaseSpan Phase = 'X'
	// PhaseInstant is a point event (Chrome ph "i").
	PhaseInstant Phase = 'i'
	// PhaseCounter is a sampled counter value (Chrome ph "C").
	PhaseCounter Phase = 'C'
)

// TraceEvent is one structured record in a trace. Cycle counts serve as
// timestamps (exported as microseconds, so one simulated cycle renders
// as 1 µs in Perfetto).
type TraceEvent struct {
	// Name is the event label: a stall cause for slot spans, "acquire" /
	// "acquire-fail" / "release" for SRP events, "CTA n" for CTA spans,
	// or the counter name.
	Name string
	// Cat groups events: "slot", "srp", "cta", "sample".
	Cat string
	// Proc is the process lane (one simulation run); the exporter maps
	// each distinct Proc to a Chrome pid with a process_name record.
	Proc string
	// Track is the thread lane within the process (e.g. "SM0 warp 03");
	// mapped to a Chrome tid with a thread_name record. Counters ignore
	// it.
	Track string
	// Phase selects span / instant / counter.
	Phase Phase
	// Cycle is the event's start cycle.
	Cycle int64
	// Dur is the span length in cycles (spans only).
	Dur int64
	// Value carries the counter sample, or an event argument (the SRP
	// section index for acquire/release, -1 when absent).
	Value int64
}

// Trace is a bounded, thread-safe ring buffer of trace events: cheap
// enough to leave attached to long simulations, with the oldest events
// overwritten once the capacity is reached.
type Trace struct{ ring ring[TraceEvent] }

// DefaultTraceEvents is the ring capacity NewTrace(0) selects.
const DefaultTraceEvents = 1 << 18

// NewTrace creates a ring buffer holding up to capacity events
// (DefaultTraceEvents when capacity <= 0).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	return &Trace{ring: newRing[TraceEvent](capacity)}
}

// Add appends an event, overwriting the oldest once full.
func (t *Trace) Add(ev TraceEvent) { t.ring.add(ev) }

// Len returns the number of events currently held.
func (t *Trace) Len() int {
	n, _ := t.ring.stats()
	return n
}

// Dropped returns how many events were overwritten by newer ones.
func (t *Trace) Dropped() int64 {
	_, d := t.ring.stats()
	return d
}

// Events returns the retained events, oldest first.
func (t *Trace) Events() []TraceEvent { return t.ring.items(nil) }

// ring is the bounded, mutex-guarded buffer under Trace and
// SpanRecorder: once full, each add overwrites the oldest element and
// counts it as dropped.
type ring[T any] struct {
	mu      sync.Mutex
	buf     []T
	next    int   // write position
	size    int   // live elements (<= len(buf))
	dropped int64 // elements overwritten so far
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

func (r *ring[T]) add(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.size < len(r.buf) {
		r.size++
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// stats returns how many elements are held and how many were dropped.
func (r *ring[T]) stats() (held int, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size, r.dropped
}

// items returns the retained elements keep accepts (every one when
// keep is nil), oldest first.
func (r *ring[T]) items(keep func(*T) bool) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, r.size)
	start := r.next - r.size
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.size; i++ {
		if v := &r.buf[(start+i)%len(r.buf)]; keep == nil || keep(v) {
			out = append(out, *v)
		}
	}
	return out
}

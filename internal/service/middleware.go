package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"regmutex/internal/obs"
)

// requestIDHeader carries the request's correlation ID in both
// directions: an inbound value is honored (so a proxy or client can
// stitch its own traces to ours), otherwise the middleware mints one.
// Every response carries it, and every access-log line repeats it.
const requestIDHeader = "X-Request-Id"

type requestIDKey struct{}

// RequestID returns the request's correlation ID, "" outside the
// middleware.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// instrument is the HTTP telemetry middleware state: one per Mux,
// sharing the tier's registry so /metrics exposes the HTTP series next
// to the sim, job and routing series.
type instrument struct {
	reg    *obs.Registry
	log    *slog.Logger
	prefix string // per-process request-ID prefix (distinguishes restarts)
	seq    atomic.Int64
}

func newInstrument(reg *obs.Registry, log *slog.Logger) *instrument {
	var b [4]byte
	rand.Read(b[:])
	in := &instrument{reg: reg, log: log.With("subsystem", "http"), prefix: hex.EncodeToString(b[:])}
	// The per-route series are created by wrap as each route is mounted,
	// so a scrape sees the full shape (zero-valued) before the first
	// request arrives; the status classes are registered here.
	for _, class := range []string{"2xx", "3xx", "4xx", "5xx"} {
		reg.Counter("http.status." + class)
	}
	reg.Gauge("http.in_flight")
	return in
}

func (in *instrument) newRequestID() string {
	return fmt.Sprintf("%s-%06d", in.prefix, in.seq.Add(1))
}

// wrap instruments one route: request-ID assignment, in-flight/latency/
// status-class metrics under the route label, and a structured access
// log line per request.
func (in *instrument) wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	lat := in.reg.Histogram("http.latency." + route)
	reqs := in.reg.Counter("http.requests." + route)
	inFlight := in.reg.Gauge("http.in_flight")
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if id == "" {
			id = in.newRequestID()
		}
		w.Header().Set(requestIDHeader, id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		inFlight.Add(1)
		h(sw, r)
		inFlight.Add(-1)
		elapsed := time.Since(start)

		lat.Observe(elapsed.Seconds())
		reqs.Inc()
		in.reg.Counter(fmt.Sprintf("http.status.%dxx", sw.status/100)).Inc()
		in.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int64("duration_us", elapsed.Microseconds()),
			slog.String("remote", r.RemoteAddr))
	}
}

// statusWriter captures the status code for metrics and access logs.
// Flush forwards so SSE streaming keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.status, w.wroteHeader = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wroteHeader = true
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// canFlush reports whether the underlying writer supports streaming —
// the SSE handler's feature check, kept honest through the wrapper.
func canFlush(w http.ResponseWriter) bool {
	if sw, ok := w.(*statusWriter); ok {
		w = sw.ResponseWriter
	}
	_, ok := w.(http.Flusher)
	return ok
}

package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"regmutex/internal/obs"
	"regmutex/internal/service"
)

// HandlerOption tunes the router's HTTP surface.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	log       *slog.Logger
	keepalive time.Duration
}

// WithAccessLog routes structured access logs to l.
func WithAccessLog(l *slog.Logger) HandlerOption {
	return func(c *handlerConfig) { c.log = l }
}

// WithSSEKeepalive sets the ": ping" interval on idle event streams.
func WithSSEKeepalive(d time.Duration) HandlerOption {
	return func(c *handlerConfig) {
		if d > 0 {
			c.keepalive = d
		}
	}
}

// Handler builds the gpusimrouter HTTP surface over r — the same job API
// an instance serves, so clients point at the fleet without changing a
// line, plus the fleet admin view:
//
//	POST   /v1/jobs             submit (202; ?wait=1 blocks for the result)
//	GET    /v1/jobs             list router jobs
//	GET    /v1/jobs/{id}        job status + result (+placement info)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs/{id}/events SSE stream with id: frames; Last-Event-ID
//	                            resumes (survives instance failovers —
//	                            the router re-sequences into its own
//	                            stable event log)
//	GET    /v1/instances        per-instance health/breaker/load snapshot
//	GET    /v1/traces/{id}      merged fleet trace for one trace/job ID:
//	                            Chrome trace-event JSON by default
//	                            (?format=breakdown for the per-class
//	                            per-stage latency table, ?format=spans
//	                            for the raw merged spans)
//	GET    /healthz             liveness (always 200, body ok|draining)
//	GET    /readyz              readiness (503 while draining, or when
//	                            zero instances are routable — the body
//	                            names ejected/open-breaker/draining
//	                            instances)
//	GET    /metrics             router metrics (?format=csv|prometheus)
func Handler(r *Router, opts ...HandlerOption) http.Handler {
	cfg := handlerConfig{log: obs.NopLogger(), keepalive: 15 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	in := &instrument{reg: r.Metrics(), log: cfg.log.With("subsystem", "router-http")}
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, in.wrap(route, h))
	}
	handle("POST /v1/jobs", "v1_jobs_submit", func(w http.ResponseWriter, req *http.Request) {
		handleSubmit(r, w, req)
	})
	handle("GET /v1/jobs", "v1_jobs_list", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Jobs())
	})
	handle("GET /v1/jobs/{id}", "v1_jobs_get", func(w http.ResponseWriter, req *http.Request) {
		j := r.Job(req.PathValue("id"))
		if j == nil {
			writeError(w, &service.ErrorBody{Code: service.CodeNotFound, Message: "no such job"})
			return
		}
		writeJSON(w, http.StatusOK, j.View())
	})
	handle("DELETE /v1/jobs/{id}", "v1_jobs_cancel", func(w http.ResponseWriter, req *http.Request) {
		j, ok := r.Cancel(req.PathValue("id"))
		if !ok {
			writeError(w, &service.ErrorBody{Code: service.CodeNotFound, Message: "no such job"})
			return
		}
		writeJSON(w, http.StatusOK, j.View())
	})
	handle("GET /v1/jobs/{id}/events", "v1_jobs_events", func(w http.ResponseWriter, req *http.Request) {
		handleEvents(r, w, req, cfg.keepalive)
	})
	handle("GET /v1/instances", "v1_instances", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Instances())
	})
	handle("GET /v1/traces/{id}", "v1_traces", func(w http.ResponseWriter, req *http.Request) {
		// The fleet-trace exporter: router spans + every instance's spans
		// for one trace, merged. Default output is Chrome trace-event
		// JSON (load it in Perfetto); ?format=breakdown renders the
		// per-class per-stage latency table instead; ?format=spans the
		// raw merged span list.
		ctx, cancel := context.WithTimeout(req.Context(), r.cfg.ProbeTimeout)
		defer cancel()
		spans := r.FleetSpans(ctx, req.PathValue("id"))
		if len(spans) == 0 {
			writeError(w, &service.ErrorBody{Code: service.CodeNotFound,
				Message: "no spans recorded for this trace (rings are bounded; old traces age out)"})
			return
		}
		switch req.URL.Query().Get("format") {
		case "breakdown":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			obs.WriteBreakdown(w, obs.Breakdown(spans))
		case "spans":
			writeJSON(w, http.StatusOK, spans)
		default:
			w.Header().Set("Content-Type", "application/json")
			WriteFleetTrace(w, spans)
		}
	})
	handle("GET /healthz", "healthz", func(w http.ResponseWriter, req *http.Request) {
		status := "ok"
		if r.Draining() {
			status = "draining"
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status": status, "unfinished": r.unfinished(),
		})
	})
	handle("GET /readyz", "readyz", func(w http.ResponseWriter, req *http.Request) {
		if r.Draining() {
			w.Header().Set("Retry-After", "10")
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
			return
		}
		// Fleet-level readiness: a router with zero routable instances
		// cannot serve, and the body names who is ejected / breaker-open
		// / draining so an operator's first curl already says why.
		ready := r.Readiness()
		if ready.Routable == 0 {
			w.Header().Set("Retry-After", "5")
			writeJSON(w, http.StatusServiceUnavailable, ready)
			return
		}
		writeJSON(w, http.StatusOK, ready)
	})
	handle("GET /metrics", "metrics", func(w http.ResponseWriter, req *http.Request) {
		r.RefreshGauges()
		switch req.URL.Query().Get("format") {
		case "csv":
			w.Header().Set("Content-Type", "text/csv")
			r.Metrics().Snapshot().WriteCSV(w)
		case "prometheus":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			r.Metrics().WritePrometheus(w)
		default:
			w.Header().Set("Content-Type", "application/json")
			r.Metrics().Snapshot().WriteJSON(w)
		}
	})
	return mux
}

func handleSubmit(r *Router, w http.ResponseWriter, req *http.Request) {
	sr, body := service.DecodeSubmit(w, req)
	if body != nil {
		writeError(w, body)
		return
	}
	// A client-sent X-Trace-Context stitches our spans into its trace;
	// with X-Request-Id the request ID becomes the trace; otherwise the
	// router job ID does (so GET /v1/traces/{jobID} always works).
	if tc := req.Header.Get(obs.TraceContextHeader); tc != "" {
		sr.TraceID, sr.TraceParent = obs.ParseTraceContext(tc)
	} else if rid := req.Header.Get("X-Request-Id"); rid != "" {
		sr.TraceID = rid
	}
	j, body := r.Submit(sr)
	if body != nil {
		writeError(w, body)
		return
	}
	if req.URL.Query().Get("wait") == "" {
		writeJSON(w, http.StatusAccepted, j.View())
		return
	}
	select {
	case <-j.Done():
		writeJSON(w, http.StatusOK, j.View())
	case <-req.Context().Done():
		r.Cancel(j.ID)
	}
}

func handleEvents(r *Router, w http.ResponseWriter, req *http.Request, keepalive time.Duration) {
	j := r.Job(req.PathValue("id"))
	if j == nil {
		writeError(w, &service.ErrorBody{Code: service.CodeNotFound, Message: "no such job"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &service.ErrorBody{Code: service.CodeInternal, Message: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	since, _ := strconv.Atoi(req.URL.Query().Get("since"))
	if last := req.Header.Get("Last-Event-ID"); last != "" {
		if n, err := strconv.Atoi(last); err == nil {
			since = n + 1
		}
	}
	ping := time.NewTicker(keepalive)
	defer ping.Stop()
	for {
		events, changed := j.EventsSince(since)
		for _, ev := range events {
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
			since = ev.Seq + 1
			if ev.Type == "state" && terminal(ev.State) {
				flusher.Flush()
				return
			}
		}
		flusher.Flush()
		select {
		case <-changed:
		case <-ping.C:
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		case <-req.Context().Done():
			return
		}
	}
}

func statusFor(code string) int {
	if code == CodeUnavailable {
		return http.StatusServiceUnavailable
	}
	return service.HTTPStatus(code)
}

func writeError(w http.ResponseWriter, body *service.ErrorBody) {
	if body.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(body.RetryAfterSec))
	}
	writeJSON(w, statusFor(body.Code), map[string]*service.ErrorBody{"error": body})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// instrument is a lean edition of the instance middleware: per-route
// latency histograms, request/status-class counters, and one structured
// access-log line per request.
type instrument struct {
	reg *obs.Registry
	log *slog.Logger
}

func (in *instrument) wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	lat := in.reg.Histogram("http.latency." + route)
	reqs := in.reg.Counter("http.requests." + route)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		lat.Observe(elapsed.Seconds())
		reqs.Inc()
		in.reg.Counter(fmt.Sprintf("http.status.%dxx", sw.status/100)).Inc()
		in.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.Int("status", sw.status),
			slog.Int64("duration_us", elapsed.Microseconds()))
	}
}

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

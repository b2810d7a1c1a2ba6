package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"regmutex/internal/jsonl"
	"regmutex/internal/obs"
)

// HandlerOption tunes the HTTP surface NewMux builds — the same options
// for gpusimd's Handler and the router's cluster.Handler.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	log       *slog.Logger
	pprof     bool
	keepalive time.Duration
}

// WithAccessLog routes structured access logs (one line per request,
// request-ID correlated) to l. Default: discarded.
func WithAccessLog(l *slog.Logger) HandlerOption {
	return func(c *handlerConfig) { c.log = l }
}

// WithPprof mounts net/http/pprof under /debug/pprof/. Off by default:
// profiling endpoints are opt-in on a traffic-serving daemon.
func WithPprof(on bool) HandlerOption {
	return func(c *handlerConfig) { c.pprof = on }
}

// WithSSEKeepalive sets the interval between ": ping" comment frames on
// idle event streams so proxies and read timeouts don't sever quiet
// watchers. Default 15s; <= 0 keeps the default.
func WithSSEKeepalive(d time.Duration) HandlerOption {
	return func(c *handlerConfig) {
		if d > 0 {
			c.keepalive = d
		}
	}
}

// Mux is the HTTP surface both tiers serve the job API on: every route
// runs through the telemetry middleware over one registry, and the SSE
// and /metrics handlers are shared, so gpusimd and gpusimrouter speak
// the same wire format and expose the same http.* series. Options
// (access log, pprof, SSE keepalive) apply to either tier alike.
type Mux struct {
	mux       *http.ServeMux
	in        *instrument
	keepalive time.Duration
}

// NewMux builds an empty surface whose middleware records into reg.
func NewMux(reg *obs.Registry, opts ...HandlerOption) *Mux {
	cfg := handlerConfig{log: obs.NopLogger(), keepalive: 15 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	m := &Mux{mux: http.NewServeMux(), in: newInstrument(reg, cfg.log), keepalive: cfg.keepalive}
	if cfg.pprof {
		m.mux.HandleFunc("/debug/pprof/", pprof.Index)
		m.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		m.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		m.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		m.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return m
}

func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) { m.mux.ServeHTTP(w, r) }

// Route mounts h at pattern behind the middleware; its latency and
// request series carry the route label.
func (m *Mux) Route(pattern, route string, h http.HandlerFunc) {
	m.mux.HandleFunc(pattern, m.in.wrap(route, h))
}

// RouteMetrics mounts GET /metrics over the middleware's registry
// (?format=csv|prometheus, JSON by default), calling refresh before
// every snapshot so scrape-time gauges are current.
func (m *Mux) RouteMetrics(refresh func()) {
	reg := m.in.reg
	m.Route("GET /metrics", "metrics", func(w http.ResponseWriter, r *http.Request) {
		refresh()
		switch r.URL.Query().Get("format") {
		case "csv":
			w.Header().Set("Content-Type", "text/csv")
			reg.Snapshot().WriteCSV(w)
		case "prometheus":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
		default:
			w.Header().Set("Content-Type", "application/json")
			reg.Snapshot().WriteJSON(w)
		}
	})
}

// Handler builds the gpusimd HTTP surface over s:
//
//	POST   /v1/jobs             submit (202; ?wait=1 blocks for the result,
//	                            and a client disconnect while waiting
//	                            cancels the job)
//	GET    /v1/jobs             list the tracked jobs (JobTable retention)
//	GET    /v1/jobs/{id}        job status + result
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs/{id}/events SSE event stream; every frame carries a
//	                            monotonically increasing `id:` so clients
//	                            (and the router's stream proxy) resume
//	                            after a reconnect via the standard
//	                            Last-Event-ID header (?since=N also
//	                            works); ": ping" keepalives while idle
//	GET    /healthz             liveness: always 200; body says ok|draining
//	GET    /readyz              readiness: 503 + Retry-After while
//	                            draining; body carries queued/running/
//	                            memo_len load hints for router scoring
//	GET    /metrics             obs metrics (?format=csv|prometheus)
//	/debug/pprof/*              profiling, only with WithPprof(true)
//
// Every route is wrapped in telemetry middleware: responses carry
// X-Request-Id (inbound values honored), per-route latency histograms,
// in-flight and status-class series land in s.Metrics(), and each
// request emits one structured access-log line.
func Handler(s *Service, opts ...HandlerOption) http.Handler {
	m := NewMux(s.Metrics(), opts...)
	m.Route("POST /v1/jobs", "v1_jobs_submit", func(w http.ResponseWriter, r *http.Request) { handleSubmit(s, w, r) })
	m.Route("GET /v1/jobs", "v1_jobs_list", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.Jobs())
	})
	m.Route("GET /v1/jobs/{id}", "v1_jobs_get", func(w http.ResponseWriter, r *http.Request) {
		j := s.Job(r.PathValue("id"))
		if j == nil {
			WriteError(w, ErrNoSuchJob)
			return
		}
		WriteJSON(w, http.StatusOK, j.View())
	})
	m.Route("DELETE /v1/jobs/{id}", "v1_jobs_cancel", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Cancel(r.PathValue("id"))
		if !ok {
			WriteError(w, ErrNoSuchJob)
			return
		}
		WriteJSON(w, http.StatusOK, j.View())
	})
	m.Route("GET /v1/jobs/{id}/events", "v1_jobs_events", func(w http.ResponseWriter, r *http.Request) {
		j := s.Job(r.PathValue("id"))
		if j == nil {
			WriteError(w, ErrNoSuchJob)
			return
		}
		m.ServeEvents(w, r, j.Lifecycle, func(attached time.Time) {
			// Stream stage: the delivery tail from job finish (or
			// stream attach, if the watcher arrived later) to the
			// final flush of the terminal frame.
			_, _, finished := j.Times()
			if attached.After(finished) {
				finished = attached
			}
			s.recordSpan(j, obs.StageStream, finished, time.Now(), "sse")
		})
	})
	m.Route("GET /v1/spans", "v1_spans", func(w http.ResponseWriter, r *http.Request) {
		// The fleet-trace exporter's per-instance feed: lifecycle spans,
		// optionally filtered to one trace (?trace=ID). Always a JSON
		// array (empty when the ring holds nothing for the trace).
		spans := s.Spans().ByTrace(r.URL.Query().Get("trace"))
		if spans == nil {
			spans = []obs.Span{}
		}
		WriteJSON(w, http.StatusOK, spans)
	})
	m.Route("GET /healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: the process is up and answering — 200 even while
		// draining, with a body that says which. Load balancers that must
		// stop routing use /readyz.
		status := "ok"
		if s.Draining() {
			status = "draining"
		}
		WriteJSON(w, http.StatusOK, map[string]any{
			"status": status, "queued": s.QueueLen(),
		})
	})
	m.Route("GET /readyz", "readyz", func(w http.ResponseWriter, r *http.Request) {
		// The body doubles as the fleet router's load probe: queue depth,
		// running jobs, and memo size feed its weighted instance scoring,
		// so readiness and load travel in one request.
		body := map[string]any{
			"status":   "ok",
			"queued":   s.QueueLen(),
			"running":  s.Running(),
			"memo_len": s.MemoLen(),
		}
		if s.Draining() {
			body["status"] = "draining"
			w.Header().Set("Retry-After", "10")
			WriteJSON(w, http.StatusServiceUnavailable, body)
			return
		}
		WriteJSON(w, http.StatusOK, body)
	})
	m.RouteMetrics(s.RefreshGauges)
	return m
}

// MaxSubmitBytes caps a POST /v1/jobs body. An accepted request is
// journaled as one JSONL line, and re-encoding can grow a JSON string
// six-fold (a raw byte becomes a \u00XX escape), so the cap keeps every
// admitted request replayable under jsonl.MaxLine.
const MaxSubmitBytes = jsonl.MaxLine / 8

// DecodeSubmit reads a POST /v1/jobs body, refusing one larger than
// MaxSubmitBytes with too_large and malformed JSON with bad_request.
// The router decodes its submissions through it too, so both tiers
// admit exactly the same bodies.
func DecodeSubmit(w http.ResponseWriter, r *http.Request) (SubmitRequest, *ErrorBody) {
	var req SubmitRequest
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSubmitBytes)).Decode(&req)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return req, &ErrorBody{Code: CodeTooLarge,
			Message: fmt.Sprintf("request body exceeds %d bytes", MaxSubmitBytes)}
	case err != nil:
		return req, &ErrorBody{Code: CodeBadRequest, Message: "bad JSON: " + err.Error()}
	}
	return req, nil
}

func handleSubmit(s *Service, w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	req, body := DecodeSubmit(w, r)
	if body != nil {
		WriteError(w, body)
		return
	}
	if req.Client == "" {
		if req.Client = r.Header.Get("X-Client"); req.Client == "" {
			if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
				req.Client = host
			} else {
				req.Client = r.RemoteAddr
			}
		}
	}
	// Trace identity: an explicit X-Trace-Context (the router's, carrying
	// the attempt span to parent under) wins; otherwise the request ID
	// the middleware threaded through starts a fresh single-hop trace.
	if tc := r.Header.Get(obs.TraceContextHeader); tc != "" {
		req.TraceID, req.TraceParent = obs.ParseTraceContext(tc)
	} else {
		req.TraceID = RequestID(r.Context())
	}
	j, body := s.Submit(req)
	if body != nil {
		WriteError(w, body)
		return
	}
	s.recordSpan(j, obs.StageAccept, t0, time.Now(), "")
	s.logger().Info("job accepted",
		"job", j.ID, "kind", j.Kind, "client", req.Client,
		"request_id", RequestID(r.Context()), "trace", j.Trace())
	if r.URL.Query().Get("wait") == "" {
		WriteJSON(w, http.StatusAccepted, j.View())
		return
	}
	// Synchronous mode: the client's connection owns the job — hanging
	// up before the result is ready withdraws it (the simulation itself
	// survives if a coalesced twin still wants it).
	select {
	case <-j.Done():
		view := j.View()
		_, _, finished := j.Times()
		s.recordSpan(j, obs.StageStream, finished, time.Now(), "wait")
		WriteJSON(w, http.StatusOK, view)
	case <-r.Context().Done():
		s.Cancel(j.ID)
	}
}

// ServeEvents streams a job's event log as Server-Sent Events: one
// `id:`/`event:`/`data:` frame per event, resuming just past a
// Last-Event-ID header (or from ?since=N), with ": ping" comment frames
// on the keepalive interval while idle. The stream ends after the
// terminal state frame is flushed; onTerminal (may be nil) then gets
// the time the watcher attached.
func (m *Mux) ServeEvents(w http.ResponseWriter, r *http.Request, l *Lifecycle, onTerminal func(attached time.Time)) {
	attached := time.Now()
	flusher, ok := w.(http.Flusher)
	if !ok || !canFlush(w) {
		WriteError(w, &ErrorBody{Code: CodeInternal, Message: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	since, _ := strconv.Atoi(r.URL.Query().Get("since"))
	// Last-Event-ID (set by EventSource and the router's stream proxy on
	// reconnect) names the last frame the client saw; resume just past it.
	// It wins over ?since so a reconnecting client can keep its original
	// URL untouched.
	if last := r.Header.Get("Last-Event-ID"); last != "" {
		if n, err := strconv.Atoi(last); err == nil {
			since = n + 1
		}
	}
	ping := time.NewTicker(m.keepalive)
	defer ping.Stop()
	for {
		events, changed := l.EventsSince(since)
		for _, ev := range events {
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
			since = ev.Seq + 1
			if ev.Type == "state" && Terminal(ev.State) {
				flusher.Flush()
				if onTerminal != nil {
					onTerminal(attached)
				}
				return
			}
		}
		flusher.Flush()
		select {
		case <-changed:
		case <-ping.C:
			// SSE comment frame: ignored by clients, but keeps bytes
			// moving so idle streams survive proxies and read timeouts.
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// HTTPStatus maps an ErrorBody code to its HTTP status, for both tiers.
func HTTPStatus(code string) int {
	switch code {
	case CodeBadRequest, CodeParseError, CodeUnknownWorkload, CodeUnknownPolicy, CodeUnknownExperiment:
		return http.StatusBadRequest
	case CodeLintRejected:
		return http.StatusUnprocessableEntity
	case CodeQueueFull, CodeRateLimited:
		return http.StatusTooManyRequests
	case CodeDraining, CodeUnavailable:
		return http.StatusServiceUnavailable
	case CodeNotFound:
		return http.StatusNotFound
	case CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusInternalServerError
	}
}

// ErrNoSuchJob is the 404 body for an unknown job ID.
var ErrNoSuchJob = &ErrorBody{Code: CodeNotFound, Message: "no such job"}

// WriteError answers with body's status (HTTPStatus), its Retry-After
// hint, and {"error": body}.
func WriteError(w http.ResponseWriter, body *ErrorBody) {
	if body.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(body.RetryAfterSec))
	}
	WriteJSON(w, HTTPStatus(body.Code), map[string]*ErrorBody{"error": body})
}

// WriteJSON answers with status and v as JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

package cluster

import (
	"context"
	"net/http"

	"regmutex/internal/obs"
	"regmutex/internal/service"
)

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
//
// It is built on the instance's service.Mux, so the middleware
// (X-Request-Id, http.* series, access log), the SSE frames and the
// /metrics formats are the instance's own, and it takes the instance's
// HandlerOptions.
func Handler(r *Router, opts ...service.HandlerOption) http.Handler {
	m := service.NewMux(r.Metrics(), opts...)
	m.Route("POST /v1/jobs", "v1_jobs_submit", func(w http.ResponseWriter, req *http.Request) {
		handleSubmit(r, w, req)
	})
	m.Route("GET /v1/jobs", "v1_jobs_list", func(w http.ResponseWriter, req *http.Request) {
		service.WriteJSON(w, http.StatusOK, r.Jobs())
	})
	m.Route("GET /v1/jobs/{id}", "v1_jobs_get", func(w http.ResponseWriter, req *http.Request) {
		j := r.Job(req.PathValue("id"))
		if j == nil {
			service.WriteError(w, service.ErrNoSuchJob)
			return
		}
		service.WriteJSON(w, http.StatusOK, j.View())
	})
	m.Route("DELETE /v1/jobs/{id}", "v1_jobs_cancel", func(w http.ResponseWriter, req *http.Request) {
		j, ok := r.Cancel(req.PathValue("id"))
		if !ok {
			service.WriteError(w, service.ErrNoSuchJob)
			return
		}
		service.WriteJSON(w, http.StatusOK, j.View())
	})
	m.Route("GET /v1/jobs/{id}/events", "v1_jobs_events", func(w http.ResponseWriter, req *http.Request) {
		j := r.Job(req.PathValue("id"))
		if j == nil {
			service.WriteError(w, service.ErrNoSuchJob)
			return
		}
		m.ServeEvents(w, req, j.Lifecycle, nil)
	})
	m.Route("GET /v1/instances", "v1_instances", func(w http.ResponseWriter, req *http.Request) {
		service.WriteJSON(w, http.StatusOK, r.Instances())
	})
	m.Route("GET /v1/traces/{id}", "v1_traces", func(w http.ResponseWriter, req *http.Request) {
		// The fleet-trace exporter: router spans + every instance's spans
		// for one trace, merged. Default output is Chrome trace-event
		// JSON (load it in Perfetto); ?format=breakdown renders the
		// per-class per-stage latency table instead; ?format=spans the
		// raw merged span list.
		ctx, cancel := context.WithTimeout(req.Context(), r.cfg.ProbeTimeout)
		defer cancel()
		spans := r.FleetSpans(ctx, req.PathValue("id"))
		if len(spans) == 0 {
			service.WriteError(w, &service.ErrorBody{Code: service.CodeNotFound,
				Message: "no spans recorded for this trace (rings are bounded; old traces age out)"})
			return
		}
		switch req.URL.Query().Get("format") {
		case "breakdown":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			obs.WriteBreakdown(w, obs.Breakdown(spans))
		case "spans":
			service.WriteJSON(w, http.StatusOK, spans)
		default:
			w.Header().Set("Content-Type", "application/json")
			WriteFleetTrace(w, spans)
		}
	})
	m.Route("GET /healthz", "healthz", func(w http.ResponseWriter, req *http.Request) {
		status := "ok"
		if r.Draining() {
			status = "draining"
		}
		service.WriteJSON(w, http.StatusOK, map[string]any{
			"status": status, "unfinished": r.jobs.Unfinished(),
		})
	})
	m.Route("GET /readyz", "readyz", func(w http.ResponseWriter, req *http.Request) {
		if r.Draining() {
			w.Header().Set("Retry-After", "10")
			service.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
			return
		}
		// Fleet-level readiness: a router with zero routable instances
		// cannot serve, and the body names who is ejected / breaker-open
		// / draining so an operator's first curl already says why.
		ready := r.Readiness()
		if ready.Routable == 0 {
			w.Header().Set("Retry-After", "5")
			service.WriteJSON(w, http.StatusServiceUnavailable, ready)
			return
		}
		service.WriteJSON(w, http.StatusOK, ready)
	})
	m.RouteMetrics(r.RefreshGauges)
	return m
}

func handleSubmit(r *Router, w http.ResponseWriter, req *http.Request) {
	sr, body := service.DecodeSubmit(w, req)
	if body != nil {
		service.WriteError(w, body)
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
		service.WriteError(w, body)
		return
	}
	if req.URL.Query().Get("wait") == "" {
		service.WriteJSON(w, http.StatusAccepted, j.View())
		return
	}
	select {
	case <-j.Done():
		service.WriteJSON(w, http.StatusOK, j.View())
	case <-req.Context().Done():
		r.Cancel(j.ID)
	}
}

// Package cluster turns N gpusimd instances into one resilient fleet.
// The Router fronts the instances with the same /v1/jobs surface they
// expose individually, adding what a single daemon cannot give: weighted
// memo-affinity placement (consistent hashing on the job fingerprint, so
// duplicate work lands where the answer is already cached), active
// /readyz health probing with consecutive-failure ejection and drain
// awareness, per-instance circuit breakers, bounded retries with
// exponential backoff + full jitter, failover replay from a router-side
// journal when an instance dies mid-job, and router-level single-flight
// so concurrent identical submissions produce one simulation fleet-wide.
//
// Retrying and replaying blindly is safe because a job's fingerprint
// fully determines its result: re-submitting can at worst cost a
// duplicate simulation, never a wrong or double-counted one, and the
// memo caches collapse most duplicates to cache hits.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"regmutex/internal/jsonl"
	"regmutex/internal/obs"
	"regmutex/internal/service"
)

// Config tunes one Router. Zero values pick production-shaped defaults;
// tests shrink the time constants.
type Config struct {
	// Instances lists the gpusimd base URLs ("http://host:port").
	Instances []string
	// ProbeInterval spaces active /readyz probes (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round (default 2s).
	ProbeTimeout time.Duration
	// EjectAfter is the consecutive probe failures that eject an instance
	// from routing until a probe succeeds again (default 3).
	EjectAfter int
	// BreakerThreshold / BreakerCooldown shape the per-instance circuit
	// breaker: threshold consecutive request failures open it, cooldown
	// later one half-open probe is admitted (defaults 3, 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Retry tunes the same-instance retry loop.
	Retry RetryPolicy
	// RequestTimeout is the per-HTTP-attempt deadline (default 2m).
	RequestTimeout time.Duration
	// StreamStallTimeout declares a followed event stream black-holed
	// when no frame (data or keepalive) arrives for this long
	// (default 60s — instance keepalives tick every 15s).
	StreamStallTimeout time.Duration
	// StreamReconnects bounds Last-Event-ID resume attempts per placement
	// before the instance is declared lost (default 2).
	StreamReconnects int
	// JobTimeout bounds one job's total routing lifetime across all
	// failovers (default 10m).
	JobTimeout time.Duration
	// Weights blends the routing scorers (default affinity 3, queue 2,
	// in-flight 1).
	Weights Weights
	// JournalPath enables the failover-replay journal ("" = off).
	JournalPath string
	// JournalNoSync skips the per-append fsync.
	JournalNoSync bool
	// Seed makes the retry jitter reproducible (0 = 1).
	Seed int64
	// SpanCap bounds the routing-span ring (route/attempt/backoff/
	// failover spans merged by the fleet-trace exporter); 0 picks
	// obs.DefaultSpanCap.
	SpanCap int
	// Logger receives routing lifecycle logs; nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.StreamStallTimeout <= 0 {
		c.StreamStallTimeout = 60 * time.Second
	}
	if c.StreamReconnects <= 0 {
		c.StreamReconnects = 2
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Router routes jobs across gpusimd instances and survives their
// failures. Build with New, call Start, serve Handler.
type Router struct {
	cfg         Config
	insts       []*instance
	client      *client
	probeClient *http.Client
	// journal is the failover-replay journal: an "accept" per admitted
	// job, an "assign" per instance placement, a "finish" per terminal
	// state. Re-routing an accepted job with no finish record is safe
	// because the end state dedups by fingerprint: if the original
	// instance completed the job, affinity routing sends the replay to
	// the same instance and the memo answers from cache; if the instance
	// died, the replay is a fresh simulation elsewhere.
	journal *jsonl.Log[service.JournalRecord]
	metrics *obs.Registry
	spans   *obs.SpanRecorder
	log     *slog.Logger

	jobs *service.JobTable[*Job]

	mu      sync.Mutex
	flights map[uint64]*Job // fingerprint -> live primary (single-flight)
	replays []*Job          // journal-replayed jobs launched by Start

	draining atomic.Bool
	stop     chan struct{}
	wg       sync.WaitGroup
	started  bool
}

// New builds a Router over the configured instances and replays the
// journal: accepted-but-unfinished jobs are re-created and re-routed
// once Start runs. At least one instance is required.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Instances) == 0 {
		return nil, fmt.Errorf("cluster: no instances configured")
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	log = log.With("subsystem", "cluster")
	jn, records, err := jsonl.Open[service.JournalRecord](cfg.JournalPath, !cfg.JournalNoSync, log)
	if err != nil {
		return nil, fmt.Errorf("router journal %w", err)
	}
	r := &Router{
		cfg:         cfg,
		probeClient: &http.Client{Timeout: cfg.ProbeTimeout},
		journal:     jn,
		metrics:     obs.NewRegistry(),
		spans:       obs.NewSpanRecorder(cfg.SpanCap, "r"),
		log:         log,
		jobs:        service.NewJobTable[*Job]("r"),
		flights:     make(map[uint64]*Job),
		stop:        make(chan struct{}),
	}
	r.client = newClient(cfg.Retry, cfg.RequestTimeout, cfg.Seed,
		func(reason string) {
			r.metrics.Counter("cluster.retries").Inc()
			r.metrics.Counter("cluster.retries." + reason).Inc()
		})
	r.client.spans = r.spans // backoff sleeps record under the job's trace
	seen := make(map[string]bool)
	for _, base := range cfg.Instances {
		base = strings.TrimRight(base, "/")
		u, err := url.Parse(base)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("cluster: bad instance URL %q", base)
		}
		if seen[u.Host] {
			return nil, fmt.Errorf("cluster: duplicate instance %q", u.Host)
		}
		seen[u.Host] = true
		r.insts = append(r.insts, &instance{
			name:    u.Host,
			base:    base,
			breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, nil),
		})
	}
	// Pre-register the fleet series so the first scrape has the shape.
	for _, name := range []string{
		"cluster.jobs_accepted", "cluster.jobs_done", "cluster.jobs_failed",
		"cluster.jobs_canceled", "cluster.jobs_coalesced", "cluster.jobs_replayed",
		"cluster.rejected_draining", "cluster.retries", "cluster.failovers",
		"cluster.stream_resumes", "cluster.probe_failures",
	} {
		r.metrics.Counter(name)
	}
	r.metrics.Histogram("cluster.route_e2e_seconds")
	r.replays = r.jobs.Replay(records, func(rec service.JournalRecord, _ int64) *Job {
		return newJob(rec.ID, *rec.Req)
	})
	for _, j := range r.replays {
		if _, dup := r.flights[j.FP]; !dup {
			r.flights[j.FP] = j
		}
	}
	return r, nil
}

// Start performs an initial synchronous probe round (so the first
// submission routes on real health), launches the probe loop, and
// re-routes journal-replayed jobs. Idempotent.
func (r *Router) Start() {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	replays := r.replays
	r.replays = nil
	r.mu.Unlock()

	r.probeAll()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.probeLoop(r.stop)
	}()
	for _, j := range replays {
		r.metrics.Counter("cluster.jobs_replayed").Inc()
		r.launch(j)
	}
}

// launch spawns the routing goroutine for a primary job, or attaches a
// duplicate-fingerprint job to the live primary's flight.
func (r *Router) launch(j *Job) {
	j.routeSpan = r.spans.NextID() // before any goroutine can read it
	r.mu.Lock()
	primary, dup := r.flights[j.FP]
	if !dup || primary == j || service.Terminal(primary.State()) {
		r.flights[j.FP] = j
		dup = false
	}
	r.mu.Unlock()
	r.wg.Add(1)
	if dup {
		r.metrics.Counter("cluster.jobs_coalesced").Inc()
		j.SetCoalesced()
		go func() {
			defer r.wg.Done()
			select {
			case <-primary.Done():
				st := primary.Status()
				var moved bool
				if st.Err != nil {
					moved = j.SetState(service.StateFailed, st.Err, nil)
				} else {
					moved = j.SetState(service.StateDone, nil, st.Result)
				}
				if moved {
					r.finish(j)
				}
			case <-j.Done():
				// Canceled independently of the primary; Cancel already
				// wrote the finish record.
			}
		}()
		return
	}
	go func() {
		defer r.wg.Done()
		r.route(j)
	}()
}

// Submit validates, admits, journals, and begins routing one request.
// The returned ErrorBody is nil on success.
func (r *Router) Submit(req service.SubmitRequest) (*Job, *service.ErrorBody) {
	if r.draining.Load() {
		r.metrics.Counter("cluster.rejected_draining").Inc()
		return nil, &service.ErrorBody{Code: service.CodeDraining, RetryAfterSec: 10,
			Message: "router is draining"}
	}
	j := r.jobs.Mint(func(id string, _ int64) *Job { return newJob(id, req) })
	if err := r.journal.Append(service.JournalRecord{Op: "accept", ID: j.ID,
		FP: fmt.Sprintf("%016x", j.FP), Req: &req}); err != nil {
		r.jobs.Forget(j.ID)
		return nil, service.JournalError(err)
	}
	r.metrics.Counter("cluster.jobs_accepted").Inc()
	r.launch(j)
	return j, nil
}

// finish journals the terminal state and closes out metrics plus the
// job's root route span (accept to terminal, every failover included).
func (r *Router) finish(j *Job) {
	state := j.State()
	r.journal.Append(service.JournalRecord{Op: "finish", ID: j.ID, End: state})
	accepted, _, _ := j.Times()
	r.metrics.Histogram("cluster.route_e2e_seconds").Observe(time.Since(accepted).Seconds())
	v0 := j.View()
	note := state
	if v0.Instance != "" {
		note = fmt.Sprintf("%s instance=%s attempts=%d", state, v0.Instance, v0.Attempts)
	}
	if v0.Coalesced {
		note += " coalesced"
	}
	r.spans.Record(obs.Span{
		Trace:  j.Trace(),
		ID:     j.routeSpan,
		Parent: j.Req.TraceParent,
		Stage:  obs.StageRoute,
		Proc:   "router",
		Class:  j.Req.SLOClass,
		Note:   note,
		Start:  accepted,
		End:    time.Now(),
	})
	switch state {
	case service.StateDone:
		r.metrics.Counter("cluster.jobs_done").Inc()
	case service.StateFailed:
		r.metrics.Counter("cluster.jobs_failed").Inc()
	case service.StateCanceled:
		r.metrics.Counter("cluster.jobs_canceled").Inc()
	}
	r.mu.Lock()
	if r.flights[j.FP] == j {
		delete(r.flights, j.FP)
	}
	r.mu.Unlock()
	r.log.Info("job finished", "job", j.ID, "state", state,
		"instance", v0.Instance, "attempts", v0.Attempts, "coalesced", v0.Coalesced)
}

// route drives one primary job to a terminal state: pick an instance,
// place the job, follow it, and fail over on instance loss. A job is
// only declared failed for cluster reasons when every placement attempt
// within JobTimeout is exhausted; 4xx responses and clean sim failures
// are terminal immediately (replaying a deterministic failure elsewhere
// reproduces it, it doesn't fix it).
func (r *Router) route(j *Job) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.JobTimeout)
	defer cancel()
	deadline := time.Now().Add(r.cfg.JobTimeout)
	tried := make(map[string]bool)
	var lastErr *attemptError
	for {
		if j.isCanceled() {
			if j.SetState(service.StateCanceled,
				&service.ErrorBody{Code: service.CodeCanceled, Message: "canceled by client"}, nil) {
				r.finish(j)
			}
			return
		}
		if time.Now().After(deadline) {
			break
		}
		in := r.pickFor(j.FP, tried)
		if in == nil {
			if len(tried) > 0 {
				// Full sweep failed; allow a second pass — breakers may
				// have gone half-open by the time we get back around.
				tried = make(map[string]bool)
			}
			if err := sleepCtx(ctx, r.cfg.ProbeInterval); err != nil {
				break
			}
			continue
		}
		view, out, ae := r.attemptOn(ctx, in, j)
		switch out {
		case outcomeDone:
			in.breaker.success()
			if view.Coalesced {
				j.SetCoalesced()
			}
			var moved bool
			if view.State == service.StateDone {
				moved = j.SetState(service.StateDone, nil, view.Result)
			} else {
				body := view.Error
				if body == nil {
					body = &service.ErrorBody{Code: service.CodeSimFailed,
						Message: fmt.Sprintf("instance %s reported state %q", in.name, view.State)}
				}
				moved = j.SetState(service.StateFailed, body, nil)
			}
			if moved {
				r.finish(j)
			}
			return
		case outcomeTerminal:
			in.breaker.success() // the instance answered correctly; the request was bad
			body := ae.body
			if body == nil {
				body = &service.ErrorBody{Code: service.CodeBadRequest, Message: ae.Error()}
			}
			if j.SetState(service.StateFailed, body, nil) {
				r.finish(j)
			}
			return
		case outcomeCanceled:
			if j.SetState(service.StateCanceled,
				&service.ErrorBody{Code: service.CodeCanceled, Message: "canceled by client"}, nil) {
				r.finish(j)
			}
			return
		case outcomeDraining:
			// Graceful signal: not a breaker failure, just unroutable for
			// new work until its probe flips back.
			in.markDraining()
			r.log.Info("instance draining, rerouting", "job", j.ID, "instance", in.name)
			continue
		default: // outcomeInstanceFailure
			lastErr = ae
			in.breaker.failure()
			tried[in.name] = true
			r.metrics.Counter("cluster.failovers").Inc()
			now := time.Now()
			r.spans.Record(obs.Span{
				Trace:  j.Trace(),
				Parent: j.routeSpan,
				Stage:  obs.StageFailover,
				Proc:   "router",
				Class:  j.Req.SLOClass,
				Note:   in.name + ": " + ae.Error(),
				Start:  now,
				End:    now,
			})
			r.log.Warn("placement failed, failing over",
				"job", j.ID, "instance", in.name, "err", ae.Error())
			continue
		}
	}
	msg := "no instance could complete the job within the routing budget"
	if lastErr != nil {
		msg += ": last error: " + lastErr.Error()
	}
	if j.SetState(service.StateFailed,
		&service.ErrorBody{Code: service.CodeUnavailable, Message: msg}, nil) {
		r.finish(j)
	}
}

// pickFor returns the best routable instance for a fingerprint,
// excluding instances already tried (and failed) for this job.
func (r *Router) pickFor(fp uint64, tried map[string]bool) *instance {
	var candidates []*instance
	for _, in := range r.insts {
		if !tried[in.name] && in.routable() {
			candidates = append(candidates, in)
		}
	}
	return pick(candidates, fp, r.cfg.Weights)
}

// attempt outcomes, classified for the routing loop.
type outcome int

const (
	outcomeDone            outcome = iota // terminal remote view obtained
	outcomeTerminal                       // 4xx: the request is wrong everywhere
	outcomeDraining                       // instance shutting down gracefully
	outcomeInstanceFailure                // instance lost or misbehaving: fail over
	outcomeCanceled                       // client withdrew the job
)

// attemptOn places the job on one instance and sees it through: submit
// asynchronously, follow the event stream (resuming with Last-Event-ID
// across hiccups), then fetch the terminal view. Any instance-level
// failure after acceptance means the job may be lost with it — the
// caller re-places it elsewhere and the fingerprint-keyed memo dedups
// whatever actually survived.
func (r *Router) attemptOn(ctx context.Context, in *instance, j *Job) (view *service.JobView, out outcome, aerr *attemptError) {
	in.inflight.Add(1)
	defer in.inflight.Add(-1)

	// One span per placement attempt, parented on the job's route span.
	// The trace context rides the request context: the client stamps it
	// onto every HTTP request as X-Trace-Context (so the instance's
	// accept/queue/run/stream spans nest under this attempt) and tags
	// its backoff sleeps with it.
	attemptID := r.spans.NextID()
	t0 := time.Now()
	ctx = obs.WithTraceContext(ctx, j.Trace(), attemptID)
	defer func() {
		note := in.name
		if aerr != nil {
			note += ": " + aerr.Error()
		}
		r.spans.Record(obs.Span{
			Trace:  j.Trace(),
			ID:     attemptID,
			Parent: j.routeSpan,
			Stage:  obs.StageAttempt,
			Proc:   "router",
			Class:  j.Req.SLOClass,
			Note:   note,
			Start:  t0,
			End:    time.Now(),
		})
	}()

	var accepted service.JobView
	if ae := r.client.do(ctx, "POST", in.base+"/v1/jobs", &j.Req, &accepted); ae != nil {
		switch {
		case j.isCanceled() || (ctx.Err() != nil && ae.terminal):
			if j.isCanceled() {
				return nil, outcomeCanceled, ae
			}
			return nil, outcomeInstanceFailure, ae
		case ae.draining:
			return nil, outcomeDraining, ae
		case ae.terminal:
			return nil, outcomeTerminal, ae
		default:
			return nil, outcomeInstanceFailure, ae
		}
	}
	j.assign(in.name, accepted.ID)
	j.SetState(service.StateRunning, nil, nil)
	r.journal.Append(service.JournalRecord{Op: "assign", ID: j.ID, Instance: in.name, RemoteID: accepted.ID})

	if err := r.followEvents(ctx, in, accepted.ID, j); err != nil {
		if j.isCanceled() {
			r.cancelRemote(in, accepted.ID)
			return nil, outcomeCanceled, &attemptError{err: err}
		}
		return nil, outcomeInstanceFailure, &attemptError{err: err}
	}
	var final service.JobView
	if ae := r.client.do(ctx, "GET", in.base+"/v1/jobs/"+accepted.ID, nil, &final); ae != nil {
		return nil, outcomeInstanceFailure, ae
	}
	if !service.Terminal(final.State) {
		// The stream said terminal but the view disagrees — treat as an
		// instance fault rather than trusting a half-written answer.
		return nil, outcomeInstanceFailure,
			&attemptError{err: fmt.Errorf("instance %s: stream ended but job %s is %q", in.name, final.ID, final.State)}
	}
	return &final, outcomeDone, nil
}

// cancelRemote withdraws a placed job, best-effort.
func (r *Router) cancelRemote(in *instance, remoteID string) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
	defer cancel()
	r.client.attempt(ctx, "DELETE", in.base+"/v1/jobs/"+remoteID, nil, nil)
}

// Job looks a router job up by ID (nil when unknown).
func (r *Router) Job(id string) *Job {
	j, _ := r.jobs.Get(id)
	return j
}

// Jobs snapshots every tracked job.
func (r *Router) Jobs() []JobView {
	all := r.jobs.All()
	out := make([]JobView, len(all))
	for i, j := range all {
		out[i] = j.View()
	}
	return out
}

// Cancel withdraws a job. Running placements observe the flag at the
// next routing decision and cancel the remote job best-effort; queued
// and coalesced jobs flip immediately.
func (r *Router) Cancel(id string) (*Job, bool) {
	j := r.Job(id)
	if j == nil {
		return nil, false
	}
	j.markCanceled()
	if in, remote, _ := j.placement(); remote != "" {
		if inst := r.instanceByName(in); inst != nil {
			r.cancelRemote(inst, remote)
		}
	}
	if j.SetState(service.StateCanceled,
		&service.ErrorBody{Code: service.CodeCanceled, Message: "canceled by client"}, nil) {
		r.finish(j)
	}
	return j, true
}

func (r *Router) instanceByName(name string) *instance {
	for _, in := range r.insts {
		if in.name == name {
			return in
		}
	}
	return nil
}

// InstanceView is the admin snapshot of one backend.
type InstanceView struct {
	Name     string `json:"name"`
	Base     string `json:"base"`
	Ready    bool   `json:"ready"`
	Draining bool   `json:"draining"`
	Breaker  string `json:"breaker"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	MemoLen  int    `json:"memo_len"`
	InFlight int    `json:"in_flight"`
}

// Instances snapshots the fleet for the admin endpoint.
func (r *Router) Instances() []InstanceView {
	out := make([]InstanceView, 0, len(r.insts))
	for _, in := range r.insts {
		in.mu.Lock()
		v := InstanceView{
			Name: in.name, Base: in.base,
			Ready: in.ready || !in.everProbed, Draining: in.draining,
			Queued: in.queued, Running: in.running, MemoLen: in.memoLen,
		}
		in.mu.Unlock()
		v.Breaker = in.breaker.snapshot().String()
		v.InFlight = int(in.inflight.Load())
		out = append(out, v)
	}
	return out
}

// Readiness is the router /readyz body: how many instances could take
// a job right now, with the unroutable ones named by why. Status is
// "ok" with at least one routable instance, "no_routable_instances"
// otherwise (served as a 503).
type Readiness struct {
	Status       string   `json:"status"`
	Instances    int      `json:"instances"`
	Routable     int      `json:"routable"`
	Ejected      []string `json:"ejected,omitempty"`
	OpenBreakers []string `json:"open_breakers,omitempty"`
	Draining     []string `json:"draining,omitempty"`
}

// Readiness classifies every instance for the /readyz body. It reads
// breaker state via snapshot — never allow() — so a readiness scrape
// can't consume a breaker's half-open probe slot.
func (r *Router) Readiness() Readiness {
	out := Readiness{Status: "ok", Instances: len(r.insts)}
	for _, v := range r.Instances() {
		switch {
		case v.Draining:
			out.Draining = append(out.Draining, v.Name)
		case !v.Ready:
			out.Ejected = append(out.Ejected, v.Name)
		case v.Breaker == "open":
			out.OpenBreakers = append(out.OpenBreakers, v.Name)
		default:
			out.Routable++
		}
	}
	if out.Routable == 0 {
		out.Status = "no_routable_instances"
	}
	return out
}

// RefreshGauges publishes the per-instance state as gauges; the /metrics
// handler calls it before every snapshot. Breaker states encode as
// closed=0, half-open=1, open=2.
func (r *Router) RefreshGauges() {
	for _, v := range r.Instances() {
		boolGauge := func(name string, on bool) {
			val := 0.0
			if on {
				val = 1
			}
			r.metrics.Gauge("cluster." + name + "." + v.Name).Set(val)
		}
		var bstate float64
		switch v.Breaker {
		case "half-open":
			bstate = 1
		case "open":
			bstate = 2
		}
		r.metrics.Gauge("cluster.breaker_state." + v.Name).Set(bstate)
		boolGauge("instance_ready", v.Ready)
		boolGauge("instance_draining", v.Draining)
		r.metrics.Gauge("cluster.instance_queued." + v.Name).Set(float64(v.Queued))
		r.metrics.Gauge("cluster.instance_inflight." + v.Name).Set(float64(v.InFlight))
	}
}

// Metrics exposes the router registry.
func (r *Router) Metrics() *obs.Registry { return r.metrics }

// Spans exposes the routing-span recorder (route/attempt/backoff/
// failover), the router-side half of the merged fleet trace.
func (r *Router) Spans() *obs.SpanRecorder { return r.spans }

// Draining reports whether Drain has begun.
func (r *Router) Draining() bool { return r.draining.Load() }

// Drain refuses new submissions and waits for every accepted job to
// reach a terminal state, then closes. If ctx expires first it returns
// an error and leaves the journal for the next router to replay.
func (r *Router) Drain(ctx context.Context) error {
	r.draining.Store(true)
	return r.jobs.Drain(ctx, r.Close)
}

// Close stops the probe loop and closes the journal. Routing goroutines
// for unfinished jobs are abandoned to their contexts; their journal
// accept records replay on the next start.
func (r *Router) Close() {
	r.draining.Store(true)
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.journal.Close()
}

// Package service implements the gpusimd simulation-as-a-service
// subsystem: a job queue over the simulator harness with admission
// control, per-client rate limiting, single-flight deduplication of
// identical runs, event streaming, and crash-safe job journalling.
//
// The HTTP surface (see Handler) is a thin JSON veneer over Service;
// everything the daemon can do is reachable programmatically, which is
// how the tests drive it.
package service

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"regmutex/internal/jsonl"
	"regmutex/internal/sim"
)

// SubmitRequest is the body of POST /v1/jobs. A request is either a
// policy-comparison run (kind "run": one workload or kasm kernel under
// one or more policies) or a named paper experiment (kind "experiment").
// Leaving Kind empty infers it: Experiment set means "experiment",
// otherwise "run".
type SubmitRequest struct {
	Kind string `json:"kind,omitempty"`

	// Run jobs: exactly one of Workload (a built-in name such as "bfs")
	// or Kasm (assembly source, assembled and linted server-side).
	Workload string `json:"workload,omitempty"`
	Kasm     string `json:"kasm,omitempty"`

	// Policy names one policy ("static", "regmutex", ...) or "all";
	// Policies lists several explicitly. Both empty means "all".
	Policy   string   `json:"policy,omitempty"`
	Policies []string `json:"policies,omitempty"`

	Half  bool `json:"half,omitempty"`  // half-size register file machine
	SMs   int  `json:"sms,omitempty"`   // SM count override (0 = default)
	Scale int  `json:"scale,omitempty"` // grid divisor for quicker runs

	// Seed feeds the workload input generator; nil means the default
	// (42), matching the CLIs.
	Seed *uint64 `json:"seed,omitempty"`

	// MaxCycles overrides the forward-progress watchdog budget; 0 keeps
	// the timing-model default.
	MaxCycles int64 `json:"max_cycles,omitempty"`

	// Audit attaches the invariant auditor. nil means the default: on
	// for kasm submissions (untrusted kernels), off for built-ins.
	Audit *bool `json:"audit,omitempty"`

	// AllowLint accepts kasm kernels that core.Lint flags; without it a
	// lint finding rejects the submission with code "lint_rejected".
	AllowLint bool `json:"allow_lint,omitempty"`

	// Experiment jobs: a paperbench experiment name (fig7, table1, ...).
	Quick      bool   `json:"quick,omitempty"` // paperbench -quick scaling
	Experiment string `json:"experiment,omitempty"`

	// Priority orders the queue (higher pops first, FIFO within a
	// level). Client attributes the request for rate limiting; the HTTP
	// layer fills it from the X-Client header or the remote address.
	Priority int    `json:"priority,omitempty"`
	Client   string `json:"client,omitempty"`

	// SLOClass buckets the request for per-class latency accounting in
	// the workspec load pipeline ("critical", "batch", ...). Pure
	// attribution: like Client and Priority it never changes the
	// simulation result, is excluded from Fingerprint, and round-trips
	// through journals and recorded traces so replays keep their class.
	SLOClass string `json:"slo_class,omitempty"`

	// TraceID / TraceParent carry the request's distributed-trace
	// identity, filled by the HTTP layer from X-Trace-Context (or the
	// request ID) — never from the JSON body. Attribution only: excluded
	// from Fingerprint and from journal/trace serialization (a replayed
	// job starts a fresh trace).
	TraceID     string `json:"-"`
	TraceParent string `json:"-"`
}

// ResolvedKind reports the request's effective kind with the inference
// rule applied: an empty Kind means "experiment" when Experiment is set
// and "run" otherwise.
func (r SubmitRequest) ResolvedKind() string {
	if r.Kind != "" {
		return r.Kind
	}
	if r.Experiment != "" {
		return "experiment"
	}
	return "run"
}

// Fingerprint returns a 64-bit FNV-1a content hash over every request
// field that determines the simulation's outcome, with the same defaults
// the executor applies (seed 42, policy set "all", audit-on for kasm).
// Two requests with equal fingerprints produce byte-identical results,
// so the fingerprint is the cluster router's identity for a job: it
// drives memo-affinity placement (land duplicates on the instance that
// already computed the answer), router-side single-flight dedup, and
// failover-replay dedup. Client, Priority, and Quick-for-run-jobs are
// attribution/ordering concerns and deliberately excluded.
func (r SubmitRequest) Fingerprint() uint64 {
	h := fnv.New64a()
	field := func(k string, v any) { fmt.Fprintf(h, "%s=%v\n", k, v) }
	kind := r.ResolvedKind()
	field("kind", kind)
	if kind == "experiment" {
		field("experiment", r.Experiment)
		field("quick", r.Quick)
	} else {
		field("workload", r.Workload)
		field("kasm", r.Kasm)
		pols := append([]string(nil), resolvePolicies(&r)...)
		sort.Strings(pols)
		field("policies", pols)
		auditOn := r.Kasm != ""
		if r.Audit != nil {
			auditOn = *r.Audit
		}
		field("audit", auditOn)
		field("allow_lint", r.AllowLint)
	}
	field("half", r.Half)
	field("sms", r.SMs)
	field("scale", r.Scale)
	seed := uint64(42)
	if r.Seed != nil {
		seed = *r.Seed
	}
	field("seed", seed)
	field("max_cycles", r.MaxCycles)
	return h.Sum64()
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Error codes carried by ErrorBody.Code. Submission-time codes map to
// 4xx/5xx statuses; run-time codes appear on failed jobs.
const (
	CodeBadRequest        = "bad_request"
	CodeParseError        = "parse_error"
	CodeLintRejected      = "lint_rejected"
	CodeUnknownWorkload   = "unknown_workload"
	CodeUnknownPolicy     = "unknown_policy"
	CodeUnknownExperiment = "unknown_experiment"
	CodeQueueFull         = "queue_full"
	CodeRateLimited       = "rate_limited"
	CodeDraining          = "draining"
	CodeNotFound          = "not_found"
	CodeSimFailed         = "sim_failed"
	CodeCanceled          = "canceled"
	CodeInternal          = "internal"
	CodeTooLarge          = "too_large"
	// CodeUnavailable is the router's terminal code when every placement
	// attempt failed — the fleet-level analogue of a 503.
	CodeUnavailable = "cluster_unavailable"
)

// JournalError is the typed refusal for a submission whose accept
// record could not be journaled: too_large when the record is longer
// than a JSONL line may be, internal otherwise.
func JournalError(err error) *ErrorBody {
	if errors.Is(err, jsonl.ErrTooLong) {
		return &ErrorBody{Code: CodeTooLarge, Message: err.Error()}
	}
	return &ErrorBody{Code: CodeInternal, Message: err.Error()}
}

// ErrorBody is the typed error payload: a stable machine-readable Code,
// an optional failure Kind (the harness ErrKind taxonomy: deadlock,
// livelock, invariant, ...), and a human-readable Message.
type ErrorBody struct {
	Code    string `json:"code"`
	Kind    string `json:"kind,omitempty"`
	Message string `json:"message"`
	// RetryAfterSec accompanies queue_full / rate_limited / draining.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

func (e *ErrorBody) Error() string { return e.Code + ": " + e.Message }

// RowView is one policy's outcome inside a run job's result.
type RowView struct {
	Policy       string  `json:"policy"`
	Cycles       int64   `json:"cycles,omitempty"`
	Instructions int64   `json:"instructions,omitempty"`
	AvgWarps     float64 `json:"avg_warps,omitempty"`
	IPCPerSM     float64 `json:"ipc_per_sm,omitempty"`
	ErrKind      string  `json:"err_kind,omitempty"`
	Err          string  `json:"err,omitempty"`
}

// JobResult is the payload of a finished job. Report is byte-identical
// to what the gpusim CLI prints for the same request (run jobs) or what
// paperbench prints for the experiment (experiment jobs).
type JobResult struct {
	Report     string    `json:"report"`
	Rows       []RowView `json:"rows,omitempty"`
	FailedRows int       `json:"failed_rows"`
	// MemoHits counts policy submissions served from the pool's
	// single-flight memo cache instead of fresh simulations.
	MemoHits   int      `json:"memo_hits"`
	LintIssues []string `json:"lint_issues,omitempty"`
}

// JobView is the JSON shape of GET /v1/jobs/{id}.
type JobView struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	// Coalesced means at least one of the job's simulations was served
	// by the memo cache (deduplicated against an identical run).
	Coalesced bool       `json:"coalesced,omitempty"`
	Priority  int        `json:"priority,omitempty"`
	Client    string     `json:"client,omitempty"`
	Error     *ErrorBody `json:"error,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
}

// Event is one entry in a job's event stream (GET /v1/jobs/{id}/events,
// served as SSE). Seq is a per-job sequence number clients use to resume.
type Event struct {
	Seq   int    `json:"seq"`
	Type  string `json:"type"` // "state" | "sample" | "log"
	State string `json:"state,omitempty"`
	// Sample fields (progress snapshots from running simulations).
	Policy string `json:"policy,omitempty"`
	Cycle  int64  `json:"cycle,omitempty"`
	Warps  int    `json:"warps,omitempty"`
	Held   int    `json:"held,omitempty"`
	Msg    string `json:"msg,omitempty"`
}

func sampleEvent(policy string, s sim.Sample) Event {
	return Event{Type: "sample", Policy: policy, Cycle: s.Cycle, Warps: s.ResidentWarps, Held: s.HeldSections}
}

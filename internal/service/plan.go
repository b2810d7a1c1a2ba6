package service

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	"regmutex/internal/asm"
	"regmutex/internal/core"
	"regmutex/internal/harness"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// plan is a request with every default applied: the one reading of what
// a SubmitRequest asks for. Fingerprint hashes it, validate checks it,
// and runExperiment and RunSpec execute it, so the router's identity for
// a job, the daemon's run and the gpusim CLI describe the same
// simulation. Fields the kind ignores stay zero.
type plan struct {
	Kind       string
	Experiment string
	Workload   string
	Kasm       string
	// Policies is the policy list in report order: the report prints the
	// delta against static only on the rows after it.
	Policies  []string
	Half      bool
	SMs       int
	Scale     int
	Seed      uint64
	MaxCycles int64
	Audit     bool
	AllowLint bool
}

// plan resolves r's defaults and checks its names. An invalid request
// also returns the plan resolved so far, raw names included, so it
// still has a fingerprint.
func (r SubmitRequest) plan() (plan, *ErrorBody) {
	p := plan{Kind: r.ResolvedKind(), SMs: max(r.SMs, 0), Scale: r.Scale, Seed: 42}
	if r.Seed != nil {
		p.Seed = *r.Seed
	}
	switch p.Kind {
	case "experiment":
		p.Experiment = r.Experiment
		if r.Quick { // paperbench -quick scaling, unless overridden
			if p.Scale <= 0 {
				p.Scale = 4
			}
			if p.SMs == 0 {
				p.SMs = 4
			}
		}
		p.Scale = max(p.Scale, 1)
		if r.Audit != nil {
			p.Audit = *r.Audit
		}
		if !harness.IsExperiment(r.Experiment) {
			return p, &ErrorBody{Code: CodeUnknownExperiment,
				Message: (&harness.NotFoundError{Kind: "experiment", Name: r.Experiment,
					Valid: harness.ExperimentNames()}).Error()}
		}
		return p, nil
	case "run":
		p.Workload, p.Kasm, p.Half, p.AllowLint = r.Workload, r.Kasm, r.Half, r.AllowLint
		p.MaxCycles = max(r.MaxCycles, 0)
		p.Scale = max(p.Scale, 1)
		if r.Kasm != "" {
			p.Scale = 0 // assembly input has no grid to scale
		}
		p.Audit = r.Kasm != "" // untrusted kernels run audited by default
		if r.Audit != nil {
			p.Audit = *r.Audit
		}
		switch {
		case len(r.Policies) > 0:
			p.Policies = r.Policies
		case r.Policy != "" && r.Policy != "all":
			p.Policies = []string{r.Policy}
		default:
			p.Policies = harness.PolicyNames
		}
		if (r.Workload == "") == (r.Kasm == "") {
			return p, &ErrorBody{Code: CodeBadRequest,
				Message: "run jobs need exactly one of workload or kasm"}
		}
		if r.Workload != "" {
			if _, err := workloads.ByName(r.Workload); err != nil {
				return p, &ErrorBody{Code: CodeUnknownWorkload,
					Message: (&harness.NotFoundError{Kind: "workload", Name: r.Workload,
						Valid: workloads.Names()}).Error()}
			}
		}
		for _, name := range p.Policies {
			if !slices.Contains(harness.PolicyNames, name) {
				return p, &ErrorBody{Code: CodeUnknownPolicy,
					Message: (&harness.NotFoundError{Kind: "policy", Name: name,
						Valid: harness.PolicyNames}).Error()}
			}
		}
		return p, nil
	default:
		return p, &ErrorBody{Code: CodeBadRequest, Message: fmt.Sprintf("unknown kind %q", p.Kind)}
	}
}

// Fingerprint returns a 64-bit FNV-1a content hash of the request's
// resolved plan: every field that determines the simulation's outcome,
// with the defaults the executor applies (kind inference, seed 42,
// policy set "all", scale >= 1, audit-on for kasm, experiment Quick
// turned into scale and SMs) and the fields the kind ignores zeroed.
// The policy list is hashed in request order, because it is the
// report's row order. Two requests with equal fingerprints produce
// byte-identical results, so the fingerprint is the cluster router's
// identity for a job: it drives memo-affinity placement (land
// duplicates on the instance that already computed the answer),
// router-side single-flight dedup, and failover-replay dedup.
// Attribution and ordering fields (Client, Priority, SLOClass, trace
// context) are excluded. An invalid request hashes its partial plan.
func (r SubmitRequest) Fingerprint() uint64 {
	p, _ := r.plan()
	h := fnv.New64a()
	json.NewEncoder(h).Encode(p) // a plan always encodes, and hash writes never fail
	return h.Sum64()
}

// validate rejects malformed requests before they consume a queue slot:
// the plan's name checks, plus kasm assembly, so a bad kernel costs the
// client one 4xx, not a simulation.
func validate(req SubmitRequest) *ErrorBody {
	p, body := req.plan()
	if body == nil && p.Kasm != "" {
		_, body = assembleKasm(p.Kasm, p.AllowLint)
	}
	return body
}

// RunSpec maps a run request to the simulation it describes: the plan's
// machine, timing, kernel, input, seed, policies and auditor. It is the
// one request→simulation mapping, shared by gpusimd's run jobs and the
// gpusim CLI (which builds a SubmitRequest from its flags); callers add
// only the pool, parallelism and observers, so a daemon report is
// byte-identical to the CLI's for the same request. Kasm sources are
// assembled, validated and linted; a lint finding rejects the request
// unless AllowLint.
func (r SubmitRequest) RunSpec() (harness.RunSpec, *ErrorBody) {
	p, body := r.plan()
	if body != nil {
		return harness.RunSpec{}, body
	}
	if p.Kind != "run" {
		return harness.RunSpec{}, &ErrorBody{Code: CodeBadRequest,
			Message: fmt.Sprintf("%s jobs have no run spec", p.Kind)}
	}
	machine := occupancy.GTX480()
	if p.Half {
		machine = occupancy.GTX480Half()
	}
	if p.SMs > 0 {
		machine.NumSMs = p.SMs
	}
	timing := sim.DefaultTiming()
	if p.MaxCycles > 0 {
		timing.MaxCycles = p.MaxCycles
	}
	spec := harness.RunSpec{Machine: machine, Timing: timing, Seed: p.Seed,
		Policies: p.Policies, Audit: p.Audit}
	if p.Workload != "" {
		spec.Workload, _ = workloads.ByName(p.Workload)
		spec.Kernel = spec.Workload.Build(p.Scale)
		return spec, nil
	}
	spec.Kernel, body = assembleKasm(p.Kasm, p.AllowLint)
	return spec, body
}

// assembleKasm parses, validates, and lints submitted assembly.
func assembleKasm(src string, allowLint bool) (*isa.Kernel, *ErrorBody) {
	k, err := asm.Parse(src)
	if err != nil {
		return nil, &ErrorBody{Code: CodeParseError, Message: err.Error()}
	}
	if err := k.Validate(); err != nil {
		return nil, &ErrorBody{Code: CodeBadRequest, Message: err.Error()}
	}
	issues, err := core.Lint(k)
	if err != nil {
		return nil, &ErrorBody{Code: CodeBadRequest, Message: err.Error()}
	}
	if len(issues) > 0 && !allowLint {
		msgs := make([]string, len(issues))
		for i, is := range issues {
			msgs[i] = is.String()
		}
		return nil, &ErrorBody{Code: CodeLintRejected,
			Message: "kernel rejected by lint (resubmit with allow_lint to run anyway): " +
				strings.Join(msgs, "; ")}
	}
	return k, nil
}

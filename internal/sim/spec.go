package sim

import (
	"fmt"

	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
)

// DeviceSpec names the three things every simulation needs: the machine,
// the timing model, and the kernel. Everything else — policy, input
// memory, observers, the auditor — is an Option on New.
type DeviceSpec struct {
	Config occupancy.Config
	Timing Timing
	Kernel *isa.Kernel
}

// buildOptions collects New's optional knobs before construction, so
// observers and auditors are attached before the initial CTA wave (and
// therefore see its cycle-0 launch events).
type buildOptions struct {
	policy      Policy
	global      []uint64
	observers   []Observer
	audit       AuditHook
	sampleEvery int64
	par         int
}

// Option configures New.
type Option func(*buildOptions)

// WithPolicy selects the register-allocation policy; nil (or omitting
// the option) selects the static baseline.
func WithPolicy(p Policy) Option { return func(b *buildOptions) { b.policy = p } }

// WithGlobal provides the device's global memory contents (the workload
// input). Omitted or nil, a zero-filled heap sized by the kernel's
// GlobalMemWords is allocated.
func WithGlobal(g []uint64) Option { return func(b *buildOptions) { b.global = g } }

// WithObserver attaches an instrumentation observer (see Observer).
// Repeating the option fans out to every observer in attachment order.
func WithObserver(o Observer) Option {
	return func(b *buildOptions) {
		if o != nil {
			b.observers = append(b.observers, o)
		}
	}
}

// WithAudit attaches an invariant auditor (see AuditHook and
// internal/audit); a returned error aborts the run.
func WithAudit(h AuditHook) Option { return func(b *buildOptions) { b.audit = h } }

// WithSampleInterval sets how often (in cycles) utilisation samples are
// delivered to Observer.OnCycleSample. Zero or omitted selects the
// default of 256.
func WithSampleInterval(n int64) Option { return func(b *buildOptions) { b.sampleEvery = n } }

// WithParallelism sets the worker count for the parallel-across-SMs
// engine (Device.Par): n > 1 steps SMs on min(n, NumSMs) concurrent
// workers between deterministic cycle barriers, 0 (the default) picks
// GOMAXPROCS, and 1 forces the serial engine. Results are byte-identical
// at every value.
func WithParallelism(n int) Option { return func(b *buildOptions) { b.par = n } }

// New builds a device from the spec and options.
func New(spec DeviceSpec, opts ...Option) (*Device, error) {
	var b buildOptions
	for _, opt := range opts {
		opt(&b)
	}
	k := spec.Kernel
	if k == nil {
		return nil, fmt.Errorf("sim: DeviceSpec.Kernel is nil")
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	pol := b.policy
	if pol == nil {
		pol = NewStaticPolicy(spec.Config)
	}
	d := &Device{
		Config: spec.Config,
		Timing: spec.Timing,
		Kernel: k,
		Policy: pol,
		Global: b.global,
		Audit:  b.audit,
		Par:    b.par,
		obs:    MultiObserver(b.observers...),
	}
	if b.sampleEvery > 0 {
		d.SampleInterval = b.sampleEvery
	}
	if d.Global == nil {
		words := k.GlobalMemWords
		if words <= 0 {
			words = 1 << 12
		}
		d.Global = make([]uint64, words)
	}
	ctasPerSM := pol.CTAsPerSM(k)
	if ctasPerSM <= 0 {
		return nil, fmt.Errorf("sim: kernel %s does not fit on %s under policy %s",
			k.Name, spec.Config.Name, pol.Name())
	}
	for i := 0; i < spec.Config.NumSMs; i++ {
		sm := newSM(d, i)
		sm.policy = pol.NewSMState(sm)
		d.sms = append(d.sms, sm)
	}
	// Initial wave: fill every SM up to its residency, round-robin so
	// CTAs spread evenly across SMs.
	for more := true; more; {
		more = false
		for _, sm := range d.sms {
			if d.nextCTA >= k.GridCTAs {
				break
			}
			if len(sm.ctas) < ctasPerSM && sm.freeSlots() >= k.WarpsPerCTA() {
				sm.launchCTA(d.nextCTA)
				d.emit(Event{Cycle: 0, SM: sm.id, Kind: "cta-launch", Data: d.nextCTA})
				d.nextCTA++
				more = true
			}
		}
	}
	if d.fatalErr != nil {
		return nil, d.fatalErr
	}
	return d, nil
}

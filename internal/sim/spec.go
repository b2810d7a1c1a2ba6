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
}

// Option configures New and NewMultiDevice.
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

// WithParallelism does nothing: every simulation runs one serial cycle
// loop.
//
// Deprecated: the perfbench module is the only caller; delete this when
// perfbench next changes.
func WithParallelism(int) Option { return func(*buildOptions) {} }

// New builds a device from the spec and options: one grid, launched
// under the policy's residency.
func New(spec DeviceSpec, opts ...Option) (*Device, error) {
	b := collect(opts)
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
	// Residency is a pure function of machine and kernel: evaluate it once.
	ctasPerSM := pol.CTAsPerSM(k)
	if ctasPerSM <= 0 {
		return nil, fmt.Errorf("sim: kernel %s does not fit on %s under policy %s",
			k.Name, spec.Config.Name, pol.Name())
	}
	fits := func(sm *SM, k *isa.Kernel) bool {
		return len(sm.ctas) < ctasPerSM && sm.freeSlots() >= k.WarpsPerCTA()
	}
	return build(spec.Config, spec.Timing, pol, fits, []grid{{kern: k, global: b.global}}, b)
}

// collect applies opts to an empty buildOptions.
func collect(opts []Option) buildOptions {
	var b buildOptions
	for _, opt := range opts {
		opt(&b)
	}
	return b
}

// build is the body New and NewMultiDevice share: it allocates a
// zero-filled heap for each grid given none, builds the SMs, and
// launches the initial wave round-robin over the SMs (so CTAs spread
// evenly) until nothing more fits. A launch-time machine error is
// returned here rather than from Run.
func build(cfg occupancy.Config, timing Timing, pol Policy, fits func(*SM, *isa.Kernel) bool, grids []grid, b buildOptions) (*Device, error) {
	d := &Device{
		Config:      cfg,
		Timing:      timing,
		Policy:      pol,
		grids:       grids,
		fits:        fits,
		audit:       b.audit,
		sampleEvery: orDefault(b.sampleEvery, 256),
		obs:         MultiObserver(b.observers...),
	}
	for i := range grids {
		g := &grids[i]
		if g.global == nil {
			g.global = make([]uint64, orDefault(g.kern.GlobalMemWords, 1<<12))
		}
		d.targetCTAs += g.kern.GridCTAs
	}
	d.Kernel, d.Global = grids[0].kern, grids[0].global
	for i := 0; i < cfg.NumSMs; i++ {
		sm := newSM(d, i)
		sm.policy = pol.NewSMState(sm)
		d.sms = append(d.sms, sm)
	}
	for more := true; more; {
		more = false
		for _, sm := range d.sms {
			if d.backfill(sm) {
				more = true
			}
		}
	}
	if d.fatalErr != nil {
		return nil, d.fatalErr
	}
	return d, nil
}

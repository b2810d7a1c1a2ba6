package workspec

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"regmutex/internal/service"
)

// Item is one scheduled arrival: when it fires (offset from the run's
// start), which cohort and SLO class it belongs to, and the fully
// materialized request it submits.
type Item struct {
	// Seq is the item's position in the merged schedule (0-based).
	Seq int `json:"seq"`
	// At is the arrival offset. The runner divides it by its time
	// compression factor; the schedule itself is stored uncompressed.
	At       time.Duration         `json:"at_us"`
	Cohort   string                `json:"cohort"`
	SLOClass string                `json:"slo_class"`
	Req      service.SubmitRequest `json:"req"`
}

// Schedule is a compiled spec: the deterministic merged arrival
// sequence. Same spec content + seed ⇒ byte-identical Canonical() on
// every run, on every worker count — nothing in
// the compilation reads wall clocks, maps, or global state.
type Schedule struct {
	SpecName string `json:"spec"`
	SpecID   string `json:"spec_id"`
	Seed     uint64 `json:"seed"`
	Items    []Item `json:"items"`
}

// Canonical renders the schedule as deterministic JSON bytes — the
// byte-identity witness the determinism tests compare.
func (s *Schedule) Canonical() []byte {
	data, _ := json.MarshalIndent(s, "", " ")
	return append(data, '\n')
}

// Fingerprints returns the per-request-fingerprint multiset of the
// schedule: how many scheduled arrivals share each result identity.
// Record→replay round trips must preserve this multiset exactly.
func (s *Schedule) Fingerprints() map[uint64]int {
	out := map[uint64]int{}
	for _, it := range s.Items {
		out[it.Req.Fingerprint()]++
	}
	return out
}

// Compile validates the spec and produces its deterministic schedule.
// Each cohort draws arrivals and request shapes from its own PRNG
// stream (seeded by spec seed ⊕ cohort name), so adding a cohort never
// perturbs the schedule of existing ones; the merged order sorts by
// (arrival time, cohort, per-cohort index).
func Compile(spec *Spec) (*Schedule, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sched := &Schedule{SpecName: spec.Name, SpecID: spec.Identity(), Seed: spec.Seed}
	type keyed struct {
		item   Item
		cohort int
		index  int
	}
	var all []keyed
	for ci, c := range spec.Cohorts {
		rng := newRand(cohortSeed(spec.Seed, c.Name))
		times := arrivalTimes(c.Arrival, c.Requests, rng)
		for i := 0; i < c.Requests; i++ {
			req := drawRequest(c, rng)
			all = append(all, keyed{
				item: Item{
					At:       times[i],
					Cohort:   c.Name,
					SLOClass: c.SLOClass,
					Req:      req,
				},
				cohort: ci,
				index:  i,
			})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.item.At != b.item.At {
			return a.item.At < b.item.At
		}
		if a.cohort != b.cohort {
			return a.cohort < b.cohort
		}
		return a.index < b.index
	})
	for i, k := range all {
		k.item.Seq = i
		sched.Items = append(sched.Items, k.item)
	}
	return sched, nil
}

// arrivalTimes draws n arrival offsets for process a. Offsets are
// quantized to microseconds so Canonical() carries no float text.
func arrivalTimes(a Arrival, n int, rng *rand64) []time.Duration {
	out := make([]time.Duration, n)
	switch a.Process {
	case ProcessASAP:
		// all zero
	case ProcessConstant:
		gap := 1 / a.RatePerSec
		for i := range out {
			out[i] = quantize(float64(i) * gap)
		}
	case ProcessPoisson:
		t := 0.0
		for i := range out {
			t += rng.exp(a.RatePerSec)
			out[i] = quantize(t)
		}
	case ProcessDiurnal:
		// Non-homogeneous Poisson by thinning: candidate arrivals at the
		// peak rate, each kept with probability rate(t)/peak.
		peak := 0.0
		for _, r := range a.RatesPerSec {
			peak = math.Max(peak, r)
		}
		t := 0.0
		for i := 0; i < n; {
			t += rng.exp(peak)
			if rng.f01()*peak <= diurnalRate(a, t) {
				out[i] = quantize(t)
				i++
			}
		}
	case ProcessBurst:
		gap := a.BurstGapSec
		for i := range out {
			burst, pos := i/a.BurstSize, i%a.BurstSize
			out[i] = quantize(float64(burst)*a.IntervalSec + float64(pos)*gap)
		}
	}
	return out
}

// diurnalRate evaluates the piecewise-constant rate profile at time t
// (seconds), repeating every PeriodSec.
func diurnalRate(a Arrival, t float64) float64 {
	frac := math.Mod(t, a.PeriodSec) / a.PeriodSec
	idx := int(frac * float64(len(a.RatesPerSec)))
	if idx >= len(a.RatesPerSec) {
		idx = len(a.RatesPerSec) - 1
	}
	return a.RatesPerSec[idx]
}

func quantize(sec float64) time.Duration {
	return time.Duration(math.Round(sec*1e6)) * time.Microsecond
}

// drawRequest materializes one request from the cohort's size
// distribution. Draw order is fixed (workload, scale, seed) so the
// stream stays reproducible.
func drawRequest(c Cohort, rng *rand64) service.SubmitRequest {
	z := c.Size
	req := service.SubmitRequest{
		Workload: z.Workload,
		Policy:   z.Policy,
		Scale:    z.Scale,
		SMs:      z.SMs,
		Half:     z.Half,
		Priority: z.Priority,
		Client:   c.Name,
		SLOClass: c.SLOClass,
	}
	if len(z.Workloads) > 0 {
		req.Workload = weightedPick(z.Workloads, rng)
	}
	if len(z.Scales) > 0 {
		req.Scale = z.Scales[rng.intn(len(z.Scales))]
	}
	if z.SeedPool > 0 {
		seed := rng.intn(z.SeedPool)
		u := uint64(seed)
		req.Seed = &u
	}
	return req
}

func weightedPick(choices []WeightedChoice, rng *rand64) string {
	total := 0.0
	for _, c := range choices {
		total += weight(c)
	}
	x := rng.f01() * total
	for _, c := range choices {
		x -= weight(c)
		if x < 0 {
			return c.Name
		}
	}
	return choices[len(choices)-1].Name
}

func weight(c WeightedChoice) float64 {
	if c.Weight <= 0 {
		return 1
	}
	return c.Weight
}

// cohortSeed derives the cohort's private PRNG seed from the spec seed
// and the cohort name.
func cohortSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, name)
	return h.Sum64()
}

// rand64 is a self-contained xorshift64* stream: deterministic across
// platforms and Go versions, which math/rand does not promise.
type rand64 struct{ s uint64 }

func newRand(seed uint64) *rand64 {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rand64{s: seed}
}

func (r *rand64) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// f01 returns a uniform float in [0, 1).
func (r *rand64) f01() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform int in [0, n).
func (r *rand64) intn(n int) int { return int(r.next() % uint64(n)) }

// exp draws an exponential inter-arrival gap at the given rate.
func (r *rand64) exp(rate float64) float64 {
	return -math.Log(1-r.f01()) / rate
}

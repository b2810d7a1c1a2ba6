package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workloadDef names one workload and how to set it up.
type workloadDef struct {
	name    string
	clients int // ops in flight at once: the cores the workload keeps busy
	setup   func(seed uint64) (bench, error)
}

// benchWorkloads is the benchmark's fixed workload list (README.md says
// why each exists).
var benchWorkloads = []workloadDef{
	{"sim-regmutex", 1, func(seed uint64) (bench, error) { return newSimBench("regmutex", seed) }},
	{"sim-static", 1, func(seed uint64) (bench, error) { return newSimBench("static", seed) }},
	{"compile", 1, func(seed uint64) (bench, error) { return newCompileBench(seed) }},
	{"serve-mix", procs(), func(seed uint64) (bench, error) { return newServeBench(seed) }},
}

// bench is one set-up instance of a workload: inputs generated, kernels
// compiled, warm-up pass done.
type bench interface {
	// run drives the workload's closed loop until the deadline and
	// records every op into ph; ops in flight at the deadline finish
	// first. A non-nil ledger turns tracing on: the calls into each
	// module are timed and counted into it.
	run(until time.Time, led *ledger, ph *phase)
	// warmupFailures counts the warm-up ops that failed their check.
	warmupFailures() int
	// layers turns an untraced and a traced phase into the workload's
	// per-layer metrics.
	layers(plain, traced phase, led *ledger, cross *crossLedger, out map[string]metric)
	close()
}

// phase is what one timed closed loop produced. Op times are kept as
// measured; speed holds each op's factor to reference speed (clock.go).
type phase struct {
	lat          []time.Duration // per completed op, failed checks included: thread CPU (one client) or wall time
	speed        []float64       // per op: factor to steal-free reference speed
	attempted    int
	failed       int           // refused, errored or failed the pinned-output check
	warmupFailed int           // the set-up's warm-up pass, checked the same way
	elapsed      time.Duration // wall time of the loop, reference units excluded
	refSeconds   float64       // the loop's steal-free time at reference speed: the throughput base
	wallOpTime   time.Duration // sum of the ops' wall times: the conservation base
	mem          memDelta

	perOp    bool          // one-client loop: ops on the thread CPU clock, a reference unit after each
	lastRef  time.Duration // the latest reference unit time
	refSpent time.Duration // wall time spent in reference units after ops
}

// measure runs b's closed loop in rounds of roundLen until d of loop
// time has passed. A one-client loop times each op on its thread's CPU
// clock and measures a reference unit after it; a loop with more clients
// times ops in wall time and measures the round's steal and the
// reference unit between rounds, when no op is in flight.
func measure(b bench, clients int, d time.Duration, led *ledger) phase {
	ph := phase{warmupFailed: b.warmupFailures(), perOp: clients == 1}
	mw := watchMem()
	before := refTime(clients)
	ph.lastRef = before
	for ph.elapsed < d || ph.attempted == 0 {
		first, spent := len(ph.lat), ph.refSpent
		steal := stealNow()
		start := time.Now()
		b.run(start.Add(roundLen), led, &ph)
		active := time.Since(start) - (ph.refSpent - spent)
		ph.elapsed += active
		if ph.perOp {
			for i := first; i < len(ph.lat); i++ {
				ph.refSeconds += ph.lat[i].Seconds() * ph.speed[i]
			}
			continue
		}
		scale := stealFree(active, stealNow()-steal, clients)
		after := refTime(clients)
		f := scale * speedFactor(before, after)
		for len(ph.speed) < len(ph.lat) {
			ph.speed = append(ph.speed, f)
		}
		ph.refSeconds += active.Seconds() * f
		before = after
	}
	ph.mem = mw.stop()
	return ph
}

// opTimer is a one-client op in progress.
type opTimer struct {
	wall time.Time
	cpu  time.Duration
}

// startOp starts timing a one-client op: the goroutine stays on its
// thread until stop, so the thread CPU clock covers exactly the op.
func startOp() opTimer {
	runtime.LockOSThread()
	return opTimer{wall: time.Now(), cpu: threadCPU()}
}

// stop ends a one-client op and returns its thread CPU and wall times.
func (t opTimer) stop() (cpu, wall time.Duration) {
	cpu, wall = threadCPU()-t.cpu, time.Since(t.wall)
	runtime.UnlockOSThread()
	return cpu, wall
}

// record adds one completed op to the phase. In a one-client loop it
// then measures the reference unit that, with the one before the op,
// scales it.
func (p *phase) record(d, wall time.Duration, ok bool) {
	p.attempted++
	p.lat = append(p.lat, d)
	p.wallOpTime += wall
	if !ok {
		p.failed++
	}
	if p.perOp {
		start := time.Now()
		r := refUnits(refRunner(0), 1)
		p.refSpent += time.Since(start)
		p.speed = append(p.speed, speedFactor(p.lastRef, r))
		p.lastRef = r
	}
}

func (p phase) completed() int { return len(p.lat) }

// wallScale converts the loop's wall time into the steal-free
// reference-speed time its ops took; it scales the traced ledger's wall
// spans.
func (p phase) wallScale() float64 { return p.refSeconds / p.elapsed.Seconds() }

// refFactor is the ops' mean factor to reference speed, weighted by
// their time: how much faster (above 1) or slower the machine ran than
// reference speed.
func (p phase) refFactor() float64 {
	var raw, scaled float64
	for i, d := range p.lat {
		raw += float64(d)
		scaled += float64(d) * p.speed[i]
	}
	return scaled / raw
}

// throughput is ops completed per steal-free reference-speed second.
func (p phase) throughput() float64 { return float64(p.completed()) / p.refSeconds }

// latenciesMs returns every op's latency in steal-free reference-speed ms.
func (p phase) latenciesMs() []float64 {
	out := make([]float64, len(p.lat))
	for i, d := range p.lat {
		out[i] = float64(d) / float64(time.Millisecond) * p.speed[i]
	}
	return out
}

func (p phase) meanLatencyMs() float64 {
	sum := 0.0
	for _, ms := range p.latenciesMs() {
		sum += ms
	}
	return sum / float64(len(p.lat))
}

// memDelta is the runtime.MemStats movement over a phase.
type memDelta struct {
	mallocs, totalAlloc uint64
	numGC               uint32
}

// memWatch brackets a phase with two runtime.ReadMemStats calls.
type memWatch struct{ start runtime.MemStats }

func watchMem() *memWatch {
	w := &memWatch{}
	runtime.ReadMemStats(&w.start)
	return w
}

func (w *memWatch) stop() memDelta {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return memDelta{
		mallocs:    end.Mallocs - w.start.Mallocs,
		totalAlloc: end.TotalAlloc - w.start.TotalAlloc,
		numGC:      end.NumGC - w.start.NumGC,
	}
}

// ledger accumulates a traced phase: time spent in each layer's calls
// and named counts. Top-level layers are disjoint slices of an op and
// must add up to the op time (conservation); nested layers run inside a
// top-level one or outside the op and are reported but not summed.
type ledger struct {
	mu     sync.Mutex
	top    map[string]time.Duration
	nested map[string]time.Duration
}

func newLedger() *ledger {
	return &ledger{top: map[string]time.Duration{}, nested: map[string]time.Duration{}}
}

// span charges the time since start to a top-level layer and returns
// the end, so consecutive calls chain without gaps.
func (l *ledger) span(layer string, start time.Time) time.Time {
	end := time.Now()
	l.add(layer, end.Sub(start))
	return end
}

func (l *ledger) add(layer string, d time.Duration) {
	l.mu.Lock()
	l.top[layer] += d
	l.mu.Unlock()
}

// nestedSpan charges the time since start to a nested layer.
func (l *ledger) nestedSpan(layer string, start time.Time) time.Time {
	end := time.Now()
	l.mu.Lock()
	l.nested[layer] += end.Sub(start)
	l.mu.Unlock()
	return end
}

// attributed is the total time charged to top-level layers.
func (l *ledger) attributed() time.Duration {
	var sum time.Duration
	for _, d := range l.top {
		sum += d
	}
	return sum
}

// crossLedger carries what a metric needs from more than one workload:
// per-kernel simulated cycles per host second under each policy.
type crossLedger struct {
	cycles map[string]map[string]int64         // policy -> kernel -> cycles
	run    map[string]map[string]time.Duration // policy -> kernel -> Device.Run time
}

func (c *crossLedger) addRun(policy, kernel string, cycles int64, d time.Duration) {
	if c.cycles == nil {
		c.cycles = map[string]map[string]int64{}
		c.run = map[string]map[string]time.Duration{}
	}
	if c.cycles[policy] == nil {
		c.cycles[policy] = map[string]int64{}
		c.run[policy] = map[string]time.Duration{}
	}
	c.cycles[policy][kernel] += cycles
	c.run[policy][kernel] += d
}

// report emits sim.regmutex_over_static_cycles_per_s per kernel and as a
// geometric mean. The base is static's cycles per second on the same
// kernel, machine and inputs.
func (c *crossLedger) report(out map[string]metric) {
	rate := func(policy, kernel string) float64 {
		return float64(c.cycles[policy][kernel]) / c.run[policy][kernel].Seconds()
	}
	logSum, n := 0.0, 0
	for _, k := range sortedKeys(c.cycles["regmutex"]) {
		if c.run["static"][k] == 0 {
			continue
		}
		r := rate("regmutex", k) / rate("static", k)
		out["sim.regmutex_over_static_cycles_per_s."+k] = metric{r, "ratio"}
		logSum += math.Log(r)
		n++
	}
	if n > 0 {
		out["sim.regmutex_over_static_cycles_per_s.geomean"] = metric{math.Exp(logSum / float64(n)), "ratio"}
	}
}

// median returns the middle value (mean of the two middle values for an
// even count).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between the two nearest ranks of the
// sorted values: rank q×(n−1), as numpy's default and Python's
// statistics.quantiles(method="inclusive") compute it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := q * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or the
// Go runtime's obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// mix derives an independent 64-bit value from a seed and a path of
// integers (splitmix64 over each step), so every generated input is a
// pure function of the workload seed.
func mix(seed uint64, path ...uint64) uint64 {
	x := seed
	for _, p := range append(path, 0) {
		x += 0x9e3779b97f4a7c15 ^ p
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return x
}

// permutation returns a seeded Fisher–Yates shuffle of 0..n-1.
func permutation(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed, uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

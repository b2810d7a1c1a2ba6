// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator, the RegMutex compiler or the gpusimd
// service in this process, checks every simulated output against pinned
// values, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer ledger) as the last line of standard output:
//
//	{"correct": true, "attempted": 160, "failed": 0, "metrics": {...}}
//
// See README.md for why each workload exists, what each metric should
// move, and which parts of the repository are deliberately unmeasured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// conservationTolerance bounds |unattributed_frac|: the top-level layer
// spans of a traced op must add up to the op's time within 5%.
const conservationTolerance = 0.05

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median, so one slow set-up does not move it.
const setupReps = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed: the generated inputs depend on it alone")
	seconds := flag.Float64("seconds", 15, "length of each timed phase in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	writePins := flag.String("write-pins", "", "regenerate the pinned outputs into this file and exit")
	flag.Parse()
	runtime.GOMAXPROCS(procs())

	if *writePins != "" {
		if err := writePinsFile(*writePins); err != nil {
			fatal(err)
		}
		return
	}
	def, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if _, err := loadPins(); err != nil {
		fatal(err)
	}
	refTime(procs()) // allocate the reference state before anything is timed
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(def, *seed, d)
	} else {
		res, err = runUntraced(def, *seed, d)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// procs is the parallelism every workload gets: GOMAXPROCS and the
// serve-mix client count. Two, or fewer when the machine has fewer
// cores, so the numbers measure the simulator and not the scheduler.
func procs() int { return min(2, runtime.NumCPU()) }

// runUntraced sets the workload up setupReps times, measures one timed
// phase on the last set-up and reports the end-to-end metrics. Every
// time is at reference speed (clock.go).
func runUntraced(def workloadDef, seed uint64, d time.Duration) (result, error) {
	var setups []float64
	var b bench
	for i := 0; i < setupReps; i++ {
		nb, secs, err := timeSetup(def.clients, func() (bench, error) { return def.setup(seed) })
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setups = append(setups, secs)
		if b != nil {
			b.close()
		}
		b = nb
	}
	ph := measure(b, def.clients, d, nil)
	b.close()
	describe(def.name, ph)

	lat := ph.latenciesMs()
	m := map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_per_s": {ph.throughput(), "1/s"},
		"latency_p50_ms":   {percentile(lat, 0.50), "ms"},
		"latency_p90_ms":   {percentile(lat, 0.90), "ms"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
	return result{
		Correct:   ph.failed == 0 && ph.warmupFailed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   m,
	}, nil
}

// runTraced produces the per-layer ledger. Every workload runs, so every
// per-layer metric is measured on every traced run: the named workload
// gets the full phase length and the others a quarter of it. Each gets
// an untraced phase (the base for trace_overhead_frac, the allocation
// and GC counts) and then a traced phase of the same length.
func runTraced(primary workloadDef, seed uint64, d time.Duration) (result, error) {
	order := []workloadDef{primary}
	for _, def := range benchWorkloads {
		if def.name != primary.name {
			order = append(order, def)
		}
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	var cross crossLedger
	for _, def := range order {
		share := d
		if def.name != primary.name {
			share = d / 4
		}
		b, err := def.setup(seed)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		plain := measure(b, def.clients, share, nil)
		led := newLedger()
		traced := measure(b, def.clients, share, led)
		b.layers(plain, traced, led, &cross, res.Metrics)
		b.close()
		describe(def.name+" (traced)", traced)

		n := def.name
		unattributed := 1 - led.attributed().Seconds()/traced.wallOpTime.Seconds()
		if math.Abs(unattributed) > conservationTolerance {
			fmt.Fprintf(os.Stderr, "perfbench: %s: layers leave %.1f%% of op time unattributed (tolerance %.0f%%)\n",
				n, 100*unattributed, 100*conservationTolerance)
		}
		res.Metrics["unattributed_frac."+n] = metric{unattributed, "frac"}
		res.Metrics["trace_overhead_frac."+n] = metric{traced.meanLatencyMs()/plain.meanLatencyMs() - 1, "frac"}
		res.Metrics["go.gc_cycles_per_op."+n] = metric{float64(plain.mem.numGC) / float64(plain.completed()), "count"}
		res.Metrics["host.speed_factor."+n] = metric{plain.refFactor(), "ratio"}
		failed, attempted := plain.failed+traced.failed, plain.attempted+traced.attempted
		res.Metrics["failed_frac."+n] = metric{float64(failed) / float64(attempted), "frac"}
		res.Attempted += attempted
		res.Failed += failed
		res.Correct = res.Correct && failed == 0 && plain.warmupFailed == 0
	}
	cross.report(res.Metrics)
	return res, nil
}

// describe prints the human-readable summary line of one phase: sample
// count, the highest percentile with at least ten samples beyond it, and
// the unscaled figures next to the factor to reference speed.
func describe(name string, ph phase) {
	n := ph.completed()
	tail := 0.0
	if n >= 10 {
		tail = 100 * float64(n-10) / float64(n)
	}
	raw := make([]float64, n)
	for i, d := range ph.lat {
		raw[i] = float64(d) / float64(time.Millisecond)
	}
	fmt.Printf("perfbench: %s: %d ops, %d failed; p90 has %d samples beyond it; highest supported percentile p%.1f; "+
		"unscaled: loop %.2fs, %.3f ops/s, p50 %.3f ms, p90 %.3f ms; speed factor %.3f\n",
		name, n, ph.failed, n-int(0.9*float64(n)+0.5), tail,
		ph.elapsed.Seconds(), float64(n)/ph.elapsed.Seconds(), percentile(raw, 0.5), percentile(raw, 0.9), ph.refFactor())
}

// workloadNames lists the workloads in their fixed order.
func workloadNames() []string {
	var out []string
	for _, def := range benchWorkloads {
		out = append(out, def.name)
	}
	return out
}

func workloadByName(name string) (workloadDef, bool) {
	for _, def := range benchWorkloads {
		if def.name == name {
			return def, true
		}
	}
	return workloadDef{}, false
}

// sortedKeys returns m's keys in order (stable output).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Command benchreg runs the benchmark-trajectory harness: a fixed
// workload×policy simulator matrix plus a workload-spec-driven gpusimd
// loopback load phase, written as a schema-versioned BENCH_<date>.json
// so the repo carries a comparable perf trajectory across commits.
//
//	benchreg                      # full matrix -> BENCH_<date>.json
//	benchreg -quick -out b.json   # CI-sized smoke run
//	benchreg -spec examples/workloads/bursty-mix.yaml -load-only
//	benchreg -replay trace.jsonl -compress 10 -load-only
//	benchreg -sweep examples/sweeps/sweep-smoke.yaml -load-only -quick
//	benchreg -sweep examples/sweeps/sweep-fleet.yaml -router
//	benchreg -sweep sweep.yaml -load-only -url http://127.0.0.1:8080
//	benchreg -compare old.json new.json   # exit 1 on >10% regression
//	benchreg -compare -threshold 0.05 old.json new.json
//
// Without -spec the load phase runs the legacy spec — the pre-pipeline
// 4-seed storm, 64 requests (24 with -quick), kept so old -compare
// baselines still measure the same traffic.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"regmutex/internal/benchreg"
	"regmutex/internal/obs"
	"regmutex/internal/saturate"
	"regmutex/internal/workspec"
)

func main() {
	quick := flag.Bool("quick", false, "CI-sized matrix (seconds, not minutes)")
	out := flag.String("out", "", "output path (default BENCH_<date>.json)")
	spec := flag.String("spec", "", "workload spec (YAML-subset or JSON) driving the load phase (default: the legacy builtin)")
	replay := flag.String("replay", "", "replay a recorded JSONL trace (gpusimd -record) as the load phase instead of a spec")
	compress := flag.Float64("compress", 0, "divide schedule arrival offsets by this factor (0 or 1 = real time)")
	loadOnly := flag.Bool("load-only", false, "skip the simulator matrix; run only the load phase and assert per-SLO-class histograms are present and nonzero (with -sweep: run only the sweep phase)")
	sweep := flag.String("sweep", "", "saturation sweep spec (YAML-subset or JSON): drive its offered-load ladder against a fresh loopback daemon (or -router / -url), print the per-stage report and record the knee in the saturation section; fails when no knee is found")
	par := flag.Int("par", 0, "SM-stepping workers inside each simulation (0 = GOMAXPROCS, 1 = serial; cycle counts identical at any value)")
	router := flag.Bool("router", false, "with -sweep: drive the ladder through a gpusimrouter over 3 loopback instances")
	url := flag.String("url", "", "with -sweep: drive the ladder against this running gpusimd daemon or gpusimrouter")
	compare := flag.Bool("compare", false, "compare two trajectory files: benchreg -compare old.json new.json")
	threshold := flag.Float64("threshold", 0.10, "regression threshold as a fraction (0.10 = 10%)")
	logFormat := flag.String("log-format", obs.LogText, "structured log format: text|json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fail(2, "%v", err)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fail(2, "%v", err)
	}

	if *compare {
		if flag.NArg() != 2 {
			fail(2, "usage: benchreg -compare [-threshold F] old.json new.json")
		}
		old, err := benchreg.ReadFile(flag.Arg(0))
		if err != nil {
			fail(2, "%v", err)
		}
		cur, err := benchreg.ReadFile(flag.Arg(1))
		if err != nil {
			fail(2, "%v", err)
		}
		regs, warns, err := benchreg.Compare(old, cur, *threshold)
		if err != nil {
			fail(2, "%v", err)
		}
		for _, w := range warns {
			fmt.Fprintf(os.Stderr, "benchreg: warning: %s\n", w)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "benchreg: %d regression(s) beyond %.0f%%:\n", len(regs), 100**threshold)
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("benchreg: no regressions beyond %.0f%% (%s vs %s)\n", 100**threshold, flag.Arg(0), flag.Arg(1))
		return
	}

	o := benchreg.Options{
		Quick:    *quick,
		Par:      *par,
		Fleet:    *router,
		URL:      *url,
		Compress: *compress,
		LoadOnly: *loadOnly,
		Logger:   logger,
	}
	if *spec != "" && *replay != "" {
		fail(2, "-spec and -replay are mutually exclusive")
	}
	if *spec != "" {
		s, err := workspec.ParseFile(*spec)
		if err != nil {
			fail(2, "%v", err)
		}
		o.Spec = s
	}
	if *replay != "" {
		recs, err := workspec.ReadTraceFile(*replay)
		if err != nil {
			fail(2, "%v", err)
		}
		sched, err := workspec.FromTrace("", recs)
		if err != nil {
			fail(2, "%v", err)
		}
		o.Schedule = sched
	}
	if *sweep != "" {
		s, err := saturate.ParseFile(*sweep)
		if err != nil {
			fail(2, "%v", err)
		}
		o.SweepSpec = s
	}

	res, err := benchreg.Run(o)
	if err != nil {
		fail(1, "%v", err)
	}
	if *loadOnly && res.Load != nil {
		if err := assertLoad(res); err != nil {
			fail(1, "load smoke: %v", err)
		}
	}
	if *sweep != "" {
		if res.Saturation == nil {
			fail(1, "sweep ran but produced no saturation section")
		}
		res.Saturation.Report.WriteReport(os.Stdout)
		if !res.Saturation.KneeFound {
			fail(1, "sweep %s found no knee across %d steps: raise ladder.steps or ladder.factor so the target actually saturates",
				res.Saturation.Spec, len(res.Saturation.Steps))
		}
	}
	path := *out
	if path == "" {
		path = benchreg.DefaultFilename()
	}
	if err := res.WriteFile(path); err != nil {
		fail(1, "%v", err)
	}
	if res.Load != nil {
		fmt.Printf("benchreg: wrote %s (%d sim cells, spec %s, %d load jobs, p99 %.1fms, memo hit rate %.0f%%)\n",
			path, len(res.Sim), res.Load.Spec, res.Load.Jobs, res.Service.Latency.P99, 100*res.Load.MemoHitRate)
		for _, class := range sortedClasses(res.Load.Classes) {
			c := res.Load.Classes[class]
			fmt.Printf("benchreg:   slo %-10s %3d jobs, p50 %.1fms, p99 %.1fms, %d coalesced\n",
				class, c.Jobs, c.Latency.P50, c.Latency.P99, c.Coalesced)
		}
	} else {
		fmt.Printf("benchreg: wrote %s\n", path)
	}
	if sat := res.Saturation; sat != nil {
		fmt.Printf("benchreg: saturation (%s): knee at %.1f offered jobs/sec -> %.1f goodput jobs/sec, p99 %.1fms (rule %s fired at step %d of %d)\n",
			sat.Target, sat.KneeOfferedPerSec, sat.KneeGoodputPerSec, sat.KneeP99Ms, sat.KneeReason, sat.KneeStep+1, len(sat.Steps))
	}
}

// assertLoad is the load-smoke gate: the per-SLO-class series must
// exist and be populated, or the spec pipeline is broken.
func assertLoad(res *benchreg.Result) error {
	if res.Load == nil {
		return fmt.Errorf("no load section produced")
	}
	if len(res.Load.Classes) == 0 {
		return fmt.Errorf("no SLO classes in load section")
	}
	for class, c := range res.Load.Classes {
		if c.Jobs <= 0 {
			return fmt.Errorf("slo class %q completed no jobs", class)
		}
		if c.Latency.Count <= 0 || c.Latency.Max <= 0 {
			return fmt.Errorf("slo class %q has an empty latency histogram", class)
		}
		if c.Failed > 0 {
			return fmt.Errorf("slo class %q had %d failed jobs", class, c.Failed)
		}
	}
	return nil
}

func sortedClasses(classes map[string]benchreg.ClassPoint) []string {
	out := make([]string, 0, len(classes))
	for class := range classes {
		out = append(out, class)
	}
	sort.Strings(out)
	return out
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchreg: "+format+"\n", args...)
	os.Exit(code)
}

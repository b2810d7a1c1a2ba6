// Command benchreg runs and gates the benchmark trajectory. Exactly one
// mode runs per invocation:
//
//	benchreg                      # the BENCHMARK.json benchmark -> BENCH_<date>.json
//	benchreg -spec examples/workloads/bursty-mix.yaml
//	benchreg -replay trace.jsonl -compress 10
//	benchreg -sweep examples/sweeps/sweep-smoke.yaml
//	benchreg -sweep examples/sweeps/sweep-fleet.yaml -router
//	benchreg -sweep sweep.yaml -url http://127.0.0.1:8080
//	benchreg -compare old.json new.json   # exit 1 on any regression
//	benchreg -compare -threshold 0.75 old.json new.json
//
// With no mode flag it reads BENCHMARK.json from the working directory,
// runs each workload's command with seed 1 for run_seconds, and writes
// each workload's result line to the perf section. -spec and -replay
// run the loopback load phase and require every SLO class to complete
// jobs with a populated latency histogram. -sweep climbs a saturation
// ladder. -compare judges perf metrics by their BENCHMARK.json bounds
// (or -threshold, whichever is looser) and load and saturation metrics
// by -threshold. Combining modes exits 2.
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

// definitionFile is the benchmark definition, read from the working
// directory.
const definitionFile = "BENCHMARK.json"

func main() {
	out := flag.String("out", "", "output path (default BENCH_<date>.json)")
	spec := flag.String("spec", "", "run the loopback load phase driven by this workload spec (YAML-subset or JSON)")
	replay := flag.String("replay", "", "run the loopback load phase replaying this recorded JSONL trace (gpusimd -record)")
	compress := flag.Float64("compress", 0, "divide schedule arrival offsets by this factor (0 or 1 = real time)")
	sweep := flag.String("sweep", "", "saturation sweep spec (YAML-subset or JSON): drive its offered-load ladder against a fresh loopback daemon (or -router / -url), print the per-stage report and record the knee in the saturation section; fails when no knee is found")
	router := flag.Bool("router", false, "with -sweep: drive the ladder through a gpusimrouter over 3 loopback instances")
	url := flag.String("url", "", "with -sweep: drive the ladder against this running gpusimd daemon or gpusimrouter")
	compare := flag.Bool("compare", false, "compare two trajectory files: benchreg -compare old.json new.json")
	threshold := flag.Float64("threshold", 0.10, "regression threshold as a fraction (0.10 = 10%); perf metrics use their BENCHMARK.json bound when it is larger")
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

	modes := 0
	for _, set := range []bool{*compare, *spec != "" || *replay != "", *sweep != ""} {
		if set {
			modes++
		}
	}
	if modes > 1 || (*spec != "" && *replay != "") {
		fail(2, "-compare, -spec/-replay and -sweep are separate modes; -spec and -replay exclude each other")
	}
	if ((*router || *url != "") && *sweep == "") || (*compress != 0 && *spec == "" && *replay == "" && *sweep == "") {
		fail(2, "-router and -url need -sweep; -compress needs -spec, -replay or -sweep")
	}

	if *compare {
		if flag.NArg() != 2 {
			fail(2, "usage: benchreg -compare [-threshold F] old.json new.json")
		}
		def, err := benchreg.ReadDefinition(definitionFile)
		if err != nil {
			fail(2, "%v", err)
		}
		old, err := benchreg.ReadFile(flag.Arg(0))
		if err != nil {
			fail(2, "%v", err)
		}
		cur, err := benchreg.ReadFile(flag.Arg(1))
		if err != nil {
			fail(2, "%v", err)
		}
		regs, warns, err := benchreg.Compare(old, cur, def, *threshold)
		if err != nil {
			fail(2, "%v", err)
		}
		for _, w := range warns {
			fmt.Fprintf(os.Stderr, "benchreg: warning: %s\n", w)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "benchreg: %d regression(s):\n", len(regs))
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("benchreg: no regressions (%s vs %s)\n", flag.Arg(0), flag.Arg(1))
		return
	}

	path := *out
	if path == "" {
		path = benchreg.DefaultFilename()
	}
	if modes == 0 {
		def, err := benchreg.ReadDefinition(definitionFile)
		if err != nil {
			fail(2, "%v", err)
		}
		res, err := benchreg.RunPerf(def, os.Stderr)
		if err != nil {
			fail(1, "%v", err)
		}
		if err := res.WriteFile(path); err != nil {
			fail(1, "%v", err)
		}
		fmt.Printf("benchreg: wrote %s (%d workloads)\n", path, len(res.Perf))
		return
	}

	o := benchreg.Options{
		Fleet:    *router,
		URL:      *url,
		Compress: *compress,
		Logger:   logger,
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
	sat := res.Saturation
	if sat != nil {
		sat.Report.WriteReport(os.Stdout)
		if !sat.KneeFound {
			fail(1, "sweep %s found no knee across %d steps: raise ladder.steps or ladder.factor so the target actually saturates",
				sat.Spec, len(sat.Steps))
		}
	}
	if err := res.WriteFile(path); err != nil {
		fail(1, "%v", err)
	}
	fmt.Printf("benchreg: wrote %s\n", path)
	if lp := res.Load; lp != nil {
		fmt.Printf("benchreg: spec %s, %d load jobs, memo hit rate %.0f%%\n", lp.Spec, lp.Jobs, 100*lp.MemoHitRate)
		for _, class := range sortedClasses(lp.Classes) {
			c := lp.Classes[class]
			fmt.Printf("benchreg:   slo %-10s %3d jobs, p50 %.1fms, p99 %.1fms, %d coalesced\n",
				class, c.Jobs, c.Latency.P50, c.Latency.P99, c.Coalesced)
		}
	}
	if sat != nil {
		fmt.Printf("benchreg: saturation (%s): knee at %.1f offered jobs/sec -> %.1f goodput jobs/sec, p99 %.1fms (rule %s fired at step %d of %d)\n",
			sat.Target, sat.KneeOfferedPerSec, sat.KneeGoodputPerSec, sat.KneeP99Ms, sat.KneeReason, sat.KneeStep+1, len(sat.Steps))
	}
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

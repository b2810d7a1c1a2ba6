// Command paperbench regenerates the tables and figures of "RegMutex:
// Inter-Warp GPU Register Time-Sharing" (ISCA 2018) on the bundled
// simulator and prints the series each plot was drawn from.
//
// Usage:
//
//	paperbench                 # every experiment at full scale
//	paperbench -exp fig7       # one experiment
//	paperbench -quick          # reduced scale for a fast smoke run
//	paperbench -exp fig7 -quick -trace fig7.json -metrics out/
//
// Exit status: 0 when every requested experiment ran cleanly, 1 when an
// experiment failed outright or any of its rows rendered as ERR(<kind>),
// 2 for an unknown -exp name.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"regmutex/internal/harness"
	"regmutex/internal/obs"
	"regmutex/internal/runpool"
)

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(harness.ExperimentNames(), ",")+",all")
	quick := flag.Bool("quick", false, "reduced scale (faster, same shapes)")
	scale := flag.Int("scale", 0, "explicit grid divisor (overrides -quick)")
	sms := flag.Int("sms", 0, "override SM count (0 = machine default)")
	seed := flag.Uint64("seed", 42, "input generator seed")
	jobs := flag.Int("j", 0, "simulations to run concurrently (0 = all cores, 1 = serial)")
	par := flag.Int("par", 0, "SM-stepping workers inside each simulation (0 = GOMAXPROCS, 1 = serial; results identical at any value)")
	auditOn := flag.Bool("audit", false, "attach the invariant auditor to every simulation")
	traceOut := flag.String("trace", "", "write every simulation's events to one Chrome trace-event JSON file")
	metricsDir := flag.String("metrics", "", "write metrics.json and metrics.csv into this directory")
	flag.Parse()

	// One pool for the whole invocation: experiments share its memo
	// cache, so e.g. fig9a reuses the baselines fig7 already simulated.
	pool := runpool.New(*jobs)
	o := harness.Options{Scale: 1, Seed: *seed, NumSMs: *sms, Pool: pool, Audit: *auditOn, Par: *par}
	if *traceOut != "" {
		o.Trace = obs.NewTrace(0)
	}
	if *metricsDir != "" {
		o.Metrics = obs.NewRegistry()
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			o.SeedSet = true
		case "audit":
			o.AuditSet = true
		}
	})
	if *quick {
		o.Scale = 4
		if o.NumSMs == 0 {
			o.NumSMs = 4
		}
	}
	if *scale > 0 {
		o.Scale = *scale
	}

	if *exp != "all" && !harness.IsExperiment(*exp) {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n",
			&harness.NotFoundError{Kind: "experiment", Name: *exp, Valid: harness.ExperimentNames()})
		os.Exit(2)
	}

	out := os.Stdout
	start := time.Now()
	ran, failedRows := 0, 0
	for _, name := range harness.ExperimentNames() {
		if *exp != "all" && *exp != name {
			continue
		}
		n, err := harness.RunExperiment(name, o, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		failedRows += n
		ran++
	}
	// The footer carries wall-clock time, so it goes to stderr: stdout
	// stays byte-identical across runs and can be diffed as-is.
	hits, misses := pool.CacheStats()
	fmt.Fprintf(os.Stderr, "\n[%d experiment(s), scale %d, %s; %d worker(s), %d simulated + %d cached]\n",
		ran, o.Scale, time.Since(start).Round(time.Millisecond), pool.Workers(), misses, hits)

	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", name, err)
		os.Exit(1)
	}
	if o.Trace != nil {
		if err := obs.WriteTraceFile(*traceOut, o.Trace); err != nil {
			fail("trace", err)
		}
		fmt.Fprintf(out, "wrote %d trace events to %s (%d overwritten); open in ui.perfetto.dev\n",
			o.Trace.Len(), *traceOut, o.Trace.Dropped())
	}
	if o.Metrics != nil {
		report := o.Metrics.Snapshot()
		if err := obs.WriteMetricsDir(*metricsDir, report); err != nil {
			fail("metrics", err)
		}
		fmt.Fprintf(out, "wrote %d metrics to %s/metrics.{json,csv}\n", len(report.Metrics), *metricsDir)
	}
	if failedRows > 0 {
		fmt.Fprintf(os.Stderr, "paperbench: %d row(s) failed with ERR\n", failedRows)
		os.Exit(1)
	}
}

// Command gpusim runs one kernel on the GPU simulator under a chosen
// register allocation policy and reports execution statistics.
//
// Usage:
//
//	gpusim -w bfs                          # baseline (static allocation)
//	gpusim -w bfs -policy regmutex         # compile with RegMutex and run
//	gpusim -w srad -policy rfv -half       # RFV on the half-size RF
//	gpusim kernel.kasm -policy regmutex    # assembly file input
//	gpusim -w sad -policy all              # compare every policy
//	gpusim -w bfs -policy all -trace t.json -metrics out/   # observability
//	gpusim -w bfs -policy regmutex -scale 8 -sms 1 -timeline  # Fig 2-style lanes
//	gpusim -validate t.json                # schema-check an exported trace
//
// The exit status is 0 only when every requested policy ran to
// completion: a row that renders as ERR(<kind>) (deadlock, livelock,
// invariant violation) makes gpusim exit 1, so CI and the gpusimd
// daemon detect failed runs without parsing the table.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"regmutex/internal/asm"
	"regmutex/internal/harness"
	"regmutex/internal/isa"
	"regmutex/internal/obs"
	"regmutex/internal/occupancy"
	"regmutex/internal/runpool"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

func main() {
	workload := flag.String("w", "", "built-in workload name")
	policy := flag.String("policy", "static", "static | regmutex | paired | owf | rfv | all")
	half := flag.Bool("half", false, "halve the register file (section IV-B machine)")
	scale := flag.Int("scale", 1, "grid divisor for quicker runs")
	sms := flag.Int("sms", 0, "override SM count")
	seed := flag.Uint64("seed", 42, "input seed")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file (open in ui.perfetto.dev)")
	timeline := flag.Bool("timeline", false, "print each policy's issue/stall timeline before its row")
	metricsDir := flag.String("metrics", "", "write metrics.json and metrics.csv into this directory")
	jobs := flag.Int("j", 0, "policies to simulate concurrently with -policy all (0 = all cores, 1 = serial)")
	par := flag.Int("par", 0, "SM-stepping workers inside each simulation (0 = GOMAXPROCS, 1 = serial; results identical at any value)")
	auditOn := flag.Bool("audit", false, "attach the invariant auditor (aborts on the first broken machine invariant)")
	validate := flag.String("validate", "", "schema-check an existing Chrome trace JSON file and exit")
	flag.Parse()

	if *validate != "" {
		f, err := os.Open(*validate)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := obs.ValidateChromeTrace(f); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: valid Chrome trace-event JSON\n", *validate)
		return
	}

	machine := occupancy.GTX480()
	if *half {
		machine = occupancy.GTX480Half()
	}
	if *sms > 0 {
		machine.NumSMs = *sms
	}

	var k *isa.Kernel
	var input []uint64
	kname := "kernel"
	switch {
	case *workload != "":
		w, err := workloads.ByName(*workload)
		if err != nil {
			fatal(&harness.NotFoundError{Kind: "workload", Name: *workload, Valid: workloads.Names()})
		}
		k = w.Build(*scale)
		input = w.Input(k, *seed)
		kname = w.Name
	case flag.Arg(0) != "":
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		k, err = asm.Parse(string(src))
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("no input: pass -w <workload> or an assembly file"))
	}

	names := []string{*policy}
	if *policy == "all" {
		names = harness.PolicyNames
	}
	var trace *obs.Trace
	if *traceOut != "" {
		trace = obs.NewTrace(0)
	}
	// Each policy's timeline renders from a trace of its own, so one
	// policy's events never crowd another's out of the ring.
	var timelines map[string]*obs.Trace
	if *timeline {
		timelines = make(map[string]*obs.Trace, len(names))
		for _, name := range names {
			timelines[name] = obs.NewTrace(0)
		}
	}
	var metrics *obs.Registry
	if *metricsDir != "" {
		metrics = obs.NewRegistry()
	}
	// Policies are independent simulations: fan them out through a pool
	// and collect in the fixed order so the report (and static's role as
	// the delta reference) is identical at any -j. The trace ring and
	// metrics registry are thread-safe, so observed runs fan out too.
	// RunPolicies + RenderReport is the exact path the gpusimd service
	// serves, which keeps daemon results byte-identical to this CLI.
	spec := harness.RunSpec{
		Machine:  machine,
		Kernel:   k,
		Name:     kname,
		Input:    input,
		Seed:     *seed,
		Policies: names,
		Audit:    *auditOn,
		Pool:     runpool.New(*jobs),
		Par:      *par,
		Observe: func(name string) ([]sim.Option, func(sim.Stats)) {
			var opts []sim.Option
			var cols []*obs.Collector
			for _, t := range []*obs.Trace{trace, timelines[name]} {
				if t != nil {
					col := obs.NewCollector(t)
					col.Proc = kname + "/" + name
					cols = append(cols, col)
					opts = append(opts, sim.WithObserver(col))
				}
			}
			return opts, func(st sim.Stats) {
				for _, col := range cols {
					col.Flush(st.Cycles)
				}
				obs.RecordStats(metrics, kname+"/"+name, st)
			}
		},
	}
	rows, _ := harness.RunPolicies(context.Background(), spec)
	var beforeRow func(harness.PolicyRow)
	if *timeline {
		beforeRow = func(r harness.PolicyRow) { obs.RenderTimeline(os.Stdout, timelines[r.Policy].Events(), 0) }
	}
	failed := harness.RenderReport(os.Stdout, machine, rows, beforeRow)
	if trace != nil {
		if err := obs.WriteTraceFile(*traceOut, trace); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d trace events to %s (%d overwritten); open in ui.perfetto.dev\n",
			trace.Len(), *traceOut, trace.Dropped())
	}
	if metrics != nil {
		if err := obs.WriteMetricsDir(*metricsDir, metrics.Snapshot()); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote metrics.json and metrics.csv to %s\n", *metricsDir)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "gpusim: %d of %d polic(y/ies) failed\n", failed, len(rows))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gpusim: %v\n", err)
	os.Exit(1)
}

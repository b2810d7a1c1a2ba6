package harness

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"regmutex/internal/obs"
	"regmutex/internal/occupancy"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// runCellAt simulates one workload × policy cell at the given sim
// parallelism and returns the Stats plus (when trace is true) the
// exported Chrome trace bytes. It deliberately bypasses the runpool memo
// cache: Par is absent from RunSpec.key precisely because results are
// par-invariant, which is the property under test here.
func runCellAt(t *testing.T, wname, pname string, par int, trace bool) (sim.Stats, []byte) {
	t.Helper()
	machine := occupancy.GTX480()
	machine.NumSMs = 4
	w, err := workloads.ByName(wname)
	if err != nil {
		t.Fatal(err)
	}
	k := w.Build(16)
	run, pol, err := PreparePolicy(machine, k, pname)
	if err != nil {
		t.Fatal(err)
	}
	opts := []sim.Option{
		sim.WithPolicy(pol),
		sim.WithGlobal(w.Input(k, 42)),
		sim.WithParallelism(par),
	}
	var tr *obs.Trace
	var col *obs.Collector
	if trace {
		tr = obs.NewTrace(0)
		col = obs.NewCollector(tr)
		col.Proc = wname + "/" + pname
		opts = append(opts, sim.WithObserver(col))
	}
	d, err := sim.New(sim.DeviceSpec{Config: machine, Timing: sim.DefaultTiming(), Kernel: run}, opts...)
	if err != nil {
		t.Fatalf("%s/%s par=%d: %v", wname, pname, par, err)
	}
	st, err := d.Run()
	if err != nil {
		t.Fatalf("%s/%s par=%d: %v", wname, pname, par, err)
	}
	var exported []byte
	if trace {
		col.Flush(st.Cycles)
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, tr.Events()); err != nil {
			t.Fatal(err)
		}
		exported = buf.Bytes()
	}
	return st, exported
}

// TestParDeterminismMatrix is the -par invariance contract: for every
// policy × workload cell, Stats must be bit-identical whether the cycle
// loop runs serially, on 4 workers, or on GOMAXPROCS workers — the
// simulator-level mirror of the runpool's -j invariance.
func TestParDeterminismMatrix(t *testing.T) {
	gomax := runtime.GOMAXPROCS(0)
	pars := []int{1, 4, gomax}
	for _, wname := range []string{"bfs", "sad", "spmv"} {
		for _, pname := range PolicyNames {
			t.Run(fmt.Sprintf("%s/%s", wname, pname), func(t *testing.T) {
				base, _ := runCellAt(t, wname, pname, pars[0], false)
				for _, par := range pars[1:] {
					got, _ := runCellAt(t, wname, pname, par, false)
					if got != base {
						t.Errorf("par=%d Stats diverge from par=1:\n par=1: %+v\n par=%d: %+v",
							par, base, par, got)
					}
				}
			})
		}
	}
}

// TestParDeterminismTrace extends the contract to the full observer
// stream: the exported Chrome trace (events, per-slot stall attribution,
// samples) must be byte-identical at any worker count, which exercises
// the barrier-ordered replay of per-SM observer buffers.
func TestParDeterminismTrace(t *testing.T) {
	for _, pname := range []string{"static", "regmutex"} {
		t.Run(pname, func(t *testing.T) {
			stSerial, serial := runCellAt(t, "bfs", pname, 1, true)
			stPar, par := runCellAt(t, "bfs", pname, 4, true)
			if stSerial != stPar {
				t.Fatalf("Stats diverge with observer attached:\n par=1: %+v\n par=4: %+v", stSerial, stPar)
			}
			if !bytes.Equal(serial, par) {
				t.Errorf("Chrome trace differs between par=1 (%d bytes) and par=4 (%d bytes)",
					len(serial), len(par))
			}
		})
	}
}

// TestObserverDetachedStatsUnchangedByPar re-checks the PR 3 guard under
// the parallel engine: attaching an observer must not change Stats, at
// any worker count (observer buffering and the per-SM sleep path must
// not depend on whether anything is watching).
func TestObserverDetachedStatsUnchangedByPar(t *testing.T) {
	for _, par := range []int{1, 4} {
		detached, _ := runCellAt(t, "bfs", "regmutex", par, false)
		attached, _ := runCellAt(t, "bfs", "regmutex", par, true)
		if detached != attached {
			t.Errorf("par=%d: observer attachment changed Stats:\n detached: %+v\n attached: %+v",
				par, detached, attached)
		}
	}
}

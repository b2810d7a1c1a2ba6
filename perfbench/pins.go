package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"regmutex/internal/asm"
	"regmutex/internal/core"
	"regmutex/internal/harness"
	"regmutex/internal/occupancy"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// The machine every simulated workload runs on: GTX480 cut to two SMs,
// kernels at grid scale 8 (the BENCH_*.json "quick" matrix).
const (
	benchScale = 8
	benchSMs   = 2
)

// benchAnchors are the bfs/sad cycle counts committed in
// BENCH_2026-08-07.json for the same machine and scale. The pins must
// agree with them, so a regenerated pin file cannot quietly absorb a
// change to simulated time.
var benchAnchors = map[string]int64{
	"bfs/static":   59924,
	"bfs/regmutex": 42011,
	"sad/static":   50799,
	"sad/regmutex": 50043,
}

// simPin is one kernel×policy simulation outcome. Simulated timing does
// not depend on the input values, so one pin serves every seed.
type simPin struct {
	Cycles           int64  `json:"cycles"`
	Instructions     int64  `json:"instructions"`
	AcquireAttempts  uint64 `json:"acquire_attempts"`
	AcquireSuccesses uint64 `json:"acquire_successes"`
	Releases         uint64 `json:"releases"`
}

// compilePin is one kernel×machine compile outcome: the base/extended
// split and the injected instruction counts.
type compilePin struct {
	Bs         int  `json:"bs"`
	Es         int  `json:"es"`
	Sections   int  `json:"sections"`
	Warps      int  `json:"warps"`
	Disabled   bool `json:"disabled"`
	Acquires   int  `json:"acquires"`
	Releases   int  `json:"releases"`
	Moves      int  `json:"moves"`
	LintIssues int  `json:"lint_issues"`
}

type pinFile struct {
	Scale   int                   `json:"scale"`
	SMs     int                   `json:"sms"`
	Sim     map[string]simPin     `json:"sim"`     // "kernel/policy"
	Compile map[string]compilePin `json:"compile"` // "kernel/machine"
}

//go:embed pins.json
var pinsJSON []byte

var (
	pinsOnce   sync.Once
	pinsLoaded *pinFile
	pinsErr    error
)

// loadPins parses the embedded pin file and checks it against the
// committed BENCH anchors.
func loadPins() (*pinFile, error) {
	pinsOnce.Do(func() {
		var p pinFile
		if err := json.Unmarshal(pinsJSON, &p); err != nil {
			pinsErr = fmt.Errorf("pins.json: %w", err)
			return
		}
		if p.Scale != benchScale || p.SMs != benchSMs {
			pinsErr = fmt.Errorf("pins.json is for scale %d, %d SMs; the benchmark runs scale %d, %d SMs",
				p.Scale, p.SMs, benchScale, benchSMs)
			return
		}
		for cell, cycles := range benchAnchors {
			if got := p.Sim[cell].Cycles; got != cycles {
				pinsErr = fmt.Errorf("pins.json %s: %d cycles, BENCH_2026-08-07.json has %d", cell, got, cycles)
				return
			}
		}
		pinsLoaded = &p
	})
	return pinsLoaded, pinsErr
}

// mustPins is loadPins for code that runs after main has checked it.
func mustPins() *pinFile {
	p, err := loadPins()
	if err != nil {
		panic(err)
	}
	return p
}

// benchMachine is the simulated machine of every sim and serve request.
func benchMachine() occupancy.Config {
	m := occupancy.GTX480()
	m.NumSMs = benchSMs
	return m
}

// compileMachines are the two register files the compile workload
// targets; Fig 8 kernels only run the |Es| heuristic on the half one.
func compileMachines() []occupancy.Config {
	return []occupancy.Config{occupancy.GTX480(), occupancy.GTX480Half()}
}

func pinOfStats(st sim.Stats) simPin {
	return simPin{
		Cycles:           st.Cycles,
		Instructions:     st.Instructions,
		AcquireAttempts:  st.AcquireAttempts,
		AcquireSuccesses: st.AcquireSuccesses,
		Releases:         st.Releases,
	}
}

func pinOfCompile(r *core.Result, lintIssues int) compilePin {
	return compilePin{
		Bs: r.Split.Bs, Es: r.Split.Es, Sections: r.Split.Sections, Warps: r.Split.Warps,
		Disabled: r.Disabled(), Acquires: r.Acquires, Releases: r.Releases, Moves: r.Moves,
		LintIssues: lintIssues,
	}
}

// directRun simulates one kernel×policy cell outside any pool or cache.
func directRun(w *workloads.Workload, policy string, seed uint64) (sim.Stats, error) {
	m := benchMachine()
	k := w.Build(benchScale)
	run, pol, err := harness.PreparePolicy(m, k, policy)
	if err != nil {
		return sim.Stats{}, err
	}
	d, err := sim.New(sim.DeviceSpec{Config: m, Timing: sim.DefaultTiming(), Kernel: run},
		sim.WithPolicy(pol), sim.WithGlobal(w.Input(k, seed)), sim.WithParallelism(1))
	if err != nil {
		return sim.Stats{}, err
	}
	return d.Run()
}

// writePinsFile regenerates the pins from direct runs of every Table I
// kernel under every policy, and from compiling every kernel's .kasm
// text for both machines.
func writePinsFile(path string) error {
	p := pinFile{Scale: benchScale, SMs: benchSMs, Sim: map[string]simPin{}, Compile: map[string]compilePin{}}
	for _, w := range workloads.All() {
		for _, policy := range harness.PolicyNames {
			st, err := directRun(w, policy, 42)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", w.Name, policy, err)
			}
			p.Sim[w.Name+"/"+policy] = pinOfStats(st)
		}
		k, err := asm.Parse(asm.Format(w.Build(benchScale)))
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		issues, err := core.Lint(k)
		if err != nil {
			return fmt.Errorf("%s lint: %w", w.Name, err)
		}
		for _, m := range compileMachines() {
			r, err := core.Transform(k, core.Options{Config: m})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", w.Name, m.Name, err)
			}
			p.Compile[w.Name+"/"+m.Name] = pinOfCompile(r, len(issues))
		}
	}
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// Command regmutexc is the RegMutex compiler driver: it loads a kernel
// (from a .kasm assembly file or one of the built-in Table I workloads),
// runs the section III-A pipeline — liveness analysis, |Es| selection,
// register index compaction, acquire/release injection — and prints the
// transformed assembly plus a pass report.
//
// Usage:
//
//	regmutexc -w bfs                   # compile a built-in workload
//	regmutexc kernel.kasm              # compile an assembly file
//	regmutexc -liveness -w dwt2d       # print the liveness report only
//	regmutexc -es 8 -w cutcp           # force |Es| = 8
//	regmutexc -half -w srad            # target the half-size register file
package main

import (
	"flag"
	"fmt"
	"os"

	"regmutex/internal/asm"
	"regmutex/internal/cfg"
	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/liveness"
	"regmutex/internal/occupancy"
	"regmutex/internal/workloads"
)

func main() {
	workload := flag.String("w", "", "built-in workload name (see -list)")
	list := flag.Bool("list", false, "list built-in workloads")
	showLive := flag.Bool("liveness", false, "print the per-instruction liveness report and exit")
	showCFG := flag.Bool("cfg", false, "print the control-flow graph (blocks, edges, immediate post-dominators) and exit")
	lint := flag.Bool("lint", false, "run advisory checks and exit")
	forceEs := flag.Int("es", 0, "force the extended-set size (0 = heuristic)")
	half := flag.Bool("half", false, "target the half-size register file")
	quiet := flag.Bool("q", false, "suppress the transformed assembly, print the report only")
	flag.Parse()

	if *list {
		for _, name := range workloads.Names() {
			fmt.Println(name)
		}
		return
	}

	k, err := loadKernel(*workload, flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	machine := occupancy.GTX480()
	if *half {
		machine = occupancy.GTX480Half()
	}

	if *showLive {
		if err := printLiveness(k); err != nil {
			fatal(err)
		}
		return
	}
	if *showCFG {
		if err := printCFG(k); err != nil {
			fatal(err)
		}
		return
	}
	if *lint {
		issues, err := core.Lint(k)
		if err != nil {
			fatal(err)
		}
		if len(issues) == 0 {
			fmt.Printf("%s: clean\n", k.Name)
			return
		}
		for _, is := range issues {
			fmt.Printf("%s: %s\n", k.Name, is)
		}
		os.Exit(1)
	}

	res, err := core.Transform(k, core.Options{Config: machine, ForceEs: *forceEs})
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Print(asm.Format(res.Kernel))
		fmt.Println()
	}
	fmt.Fprintf(os.Stderr, "kernel      %s (%d regs, alloc %d, %d threads/CTA)\n",
		k.Name, k.NumRegs, k.AllocRegs(), k.ThreadsPerCTA)
	fmt.Fprintf(os.Stderr, "machine     %s\n", machine.Name)
	if res.Disabled() {
		fmt.Fprintf(os.Stderr, "regmutex    disabled: %s\n", res.Split.Reason)
		return
	}
	fmt.Fprintf(os.Stderr, "split       |Bs| = %d, |Es| = %d (%d SRP sections for %d resident warps)\n",
		res.Split.Bs, res.Split.Es, res.Split.Sections, res.Split.Warps)
	fmt.Fprintf(os.Stderr, "injected    %d acquire(s), %d release(s), %d compaction move(s)\n",
		res.Acquires, res.Releases, res.Moves)
	fmt.Fprintf(os.Stderr, "occupancy   %.0f%% -> %.0f%% theoretical\n",
		100*res.BaselineOcc.Occupancy, 100*res.RegMutexOcc.Occupancy)
}

func loadKernel(workload, path string) (*isa.Kernel, error) {
	switch {
	case workload != "" && path != "":
		return nil, fmt.Errorf("give either -w or a file, not both")
	case workload != "":
		w, err := workloads.ByName(workload)
		if err != nil {
			return nil, err
		}
		return w.Build(1), nil
	case path != "":
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return asm.Parse(string(src))
	default:
		return nil, fmt.Errorf("no input: pass -w <workload> or an assembly file (see -h)")
	}
}

func printLiveness(k *isa.Kernel) error {
	inf, err := liveness.Compute(k)
	if err != nil {
		return err
	}
	fmt.Printf("; %s: max live %d of %d allocated; live at barriers %d\n",
		k.Name, inf.MaxLive, k.AllocRegs(), inf.MaxLiveAtBarrier)
	return inf.WriteListing(os.Stdout, len(k.Instrs))
}

func printCFG(k *isa.Kernel) error {
	g, err := cfg.Build(k)
	if err != nil {
		return err
	}
	fmt.Printf("; %s: %d basic blocks\n", k.Name, len(g.Blocks))
	for _, blk := range g.Blocks {
		ipdom := "exit"
		if p := g.IPDomBlock(blk.ID); p >= 0 {
			ipdom = fmt.Sprintf("B%d", p)
		}
		fmt.Printf("B%d: [%d..%d) succs=%v preds=%v ipdom=%s\n",
			blk.ID, blk.Start, blk.End, blk.Succs, blk.Preds, ipdom)
		for i := blk.Start; i < blk.End; i++ {
			fmt.Printf("    %3d: %s\n", i, k.Instrs[i].String())
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "regmutexc: %v\n", err)
	os.Exit(1)
}

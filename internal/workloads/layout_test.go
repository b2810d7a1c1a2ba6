package workloads

import (
	"testing"

	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/sim"
)

// TestResultRegionFitsGrid checks the memory layout without simulating:
// at scale 1 (the paper golden's grids) every kernel stores its result
// at storeBase plus the thread's global id, and the last thread's word
// lies inside the kernel's memory; Regrid keeps that true for a doubled
// grid.
func TestResultRegionFitsGrid(t *testing.T) {
	for _, w := range All() {
		doubled := w.Build(1)
		Regrid(doubled, 2*doubled.GridCTAs)
		for _, k := range []*isa.Kernel{w.Build(1), doubled} {
			for i, in := range k.Instrs {
				if in.Op != isa.OpStGlobal {
					continue
				}
				gid := isa.Instr{}
				if i > 0 {
					gid = k.Instrs[i-1]
				}
				if gid.Op != isa.OpIMad || gid.Dst != in.Srcs[0].Reg ||
					gid.Srcs[0] != isa.R(1) || gid.Srcs[1] != isa.Imm(int64(k.ThreadsPerCTA)) || gid.Srcs[2] != isa.R(0) {
					t.Errorf("%s: store at %d does not address the thread's global id", w.Name, i)
				}
				if in.Off != storeBase {
					t.Errorf("%s: store at %d has offset %d, want storeBase %d", w.Name, i, in.Off, storeBase)
				}
				if last := in.Off + int64(k.GridCTAs*k.ThreadsPerCTA) - 1; last >= int64(k.GlobalMemWords) {
					t.Errorf("%s (%d CTAs): last thread stores at word %d, memory holds %d words",
						w.Name, k.GridCTAs, last, k.GlobalMemWords)
				}
			}
		}
	}
}

// TestFullScaleRunsStayInBounds simulates the two kernels with the
// largest scale-1 grids that store past a too-small result region:
// no access may leave memory, and bfs must end with the same memory
// under regmutex as under static.
func TestFullScaleRunsStayInBounds(t *testing.T) {
	cfg := occupancy.GTX480()
	cfg.NumSMs = 2
	run := func(w *Workload, k *isa.Kernel, transform bool) (sim.Stats, []uint64) {
		t.Helper()
		kern, pol := k, sim.Policy(sim.NewStaticPolicy(cfg))
		if transform {
			res, err := core.Transform(k, core.Options{Config: occupancy.GTX480()})
			if err != nil {
				t.Fatal(err)
			}
			kern, pol = res.Kernel, sim.NewRegMutexPolicy(cfg)
		} else {
			pre, err := core.Prepare(k)
			if err != nil {
				t.Fatal(err)
			}
			kern = pre
		}
		d, err := sim.New(sim.DeviceSpec{Config: cfg, Timing: sim.DefaultTiming(), Kernel: kern},
			sim.WithPolicy(pol), sim.WithGlobal(w.Input(k, 42)))
		if err != nil {
			t.Fatal(err)
		}
		st, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st.OOBAccesses != 0 {
			t.Errorf("%s (transform=%v): %d out-of-bounds accesses", w.Name, transform, st.OOBAccesses)
		}
		return st, d.Global
	}
	for _, name := range []string{"hotspot3d", "bfs"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		k := w.Build(1)
		_, static := run(w, k, false)
		if name != "bfs" {
			continue
		}
		_, rm := run(w, k, true)
		diff := 0
		for i := range static {
			if static[i] != rm[i] {
				diff++
			}
		}
		if diff != 0 {
			t.Errorf("bfs: final memory differs from static's in %d words under regmutex", diff)
		}
	}
}

package sim

import (
	"testing"

	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/workloads"
)

// pinnedStats is the part of Stats the scheduler and issue paths decide:
// timing, the per-cause slot attribution, the acquire counters and the
// register-file traffic.
type pinnedStats struct {
	Cycles, Instructions      int64
	Stall                     StallBreakdown
	Attempts, Successes, Rels uint64
	RFReads, RFWrites         int64
}

func pinOf(st Stats) pinnedStats {
	return pinnedStats{
		Cycles: st.Cycles, Instructions: st.Instructions, Stall: st.Stall,
		Attempts: st.AcquireAttempts, Successes: st.AcquireSuccesses, Rels: st.Releases,
		RFReads: st.RFReads, RFWrites: st.RFWrites,
	}
}

// owfPaysKernel is a kernel OWF's sharing pays for on the GTX480: 16-warp
// CTAs at 36 registers fit one CTA per SM statically, but three once
// pairs share every register at or above 4. Each thread first runs a
// load loop over r0-r3 only, then a tail that touches the shared
// registers, so owners and non-owners coexist and owner-first priority
// reorders the pick list.
func owfPaysKernel() *isa.Kernel {
	const threads = 512
	b := isa.NewBuilder("owfpays", 36, 1, threads)
	b.MovSpecial(0, isa.SpecTID)
	b.MovSpecial(1, isa.SpecCTAID)
	b.IMad(1, isa.R(1), isa.Imm(threads), isa.R(0))
	b.Mov(2, isa.Imm(6))
	b.Label("top")
	b.IAdd(3, isa.R(1), isa.R(2))
	b.And(3, isa.R(3), isa.Imm(1023))
	b.LdGlobal(3, isa.R(3), 0)
	b.IAdd(0, isa.R(0), isa.R(3))
	b.ISub(2, isa.R(2), isa.Imm(1))
	b.Setp(0, isa.CmpGT, isa.R(2), isa.Imm(0))
	b.BraIf(0, "top")
	b.IMul(10, isa.R(0), isa.Imm(3))
	b.And(20, isa.R(1), isa.Imm(1023))
	b.LdGlobal(20, isa.R(20), 0)
	b.IAdd(35, isa.R(10), isa.R(20))
	b.StGlobal(isa.R(1), 1024, isa.R(35))
	b.Exit()
	k := b.MustKernel()
	k.GridCTAs = 9
	k.GlobalMemWords = 1024 + 9*threads
	return k
}

// TestPinnedSchedulerStats pins full Stats on the scheduler paths the
// paper golden never reaches: OWF with sharing on (owner-first priority
// changes the pick order), loose round-robin under RegMutex, and the
// blocking FIFO acquire variant. The values were recorded with a pick
// list rebuilt and sorted every slot; the kept, gen-invalidated order
// must reproduce them exactly.
func TestPinnedSchedulerStats(t *testing.T) {
	cfg := occupancy.GTX480()
	cfg.NumSMs = 2
	owf := NewOWFPolicy(cfg, 4)
	if !owf.sharingPays(owfPaysKernel()) {
		t.Fatal("owfPaysKernel must make OWF sharing pay")
	}
	transformed := func() (*isa.Kernel, []uint64) {
		w, err := workloads.ByName("particlefilter")
		if err != nil {
			t.Fatal(err)
		}
		k := w.Build(4)
		res, err := core.Transform(k, core.Options{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return res.Kernel, w.Input(k, 42)
	}
	blocking := NewRegMutexPolicy(cfg)
	blocking.Blocking = true
	rr := DefaultTiming()
	rr.LooseRoundRobin = true

	cases := []struct {
		name   string
		build  func() (*isa.Kernel, []uint64)
		pol    Policy
		timing Timing
		want   pinnedStats
	}{
		{"owf-sharing-pays", func() (*isa.Kernel, []uint64) {
			k, err := core.Prepare(owfPaysKernel())
			if err != nil {
				t.Fatal(err)
			}
			return k, nil
		}, owf, DefaultTiming(), pinnedStats{
			Cycles: 7094, Instructions: 7488,
			Stall:    StallBreakdown{7488, 18334, 441, 1210, 0, 315, 588},
			Attempts: 25763, Successes: 144, Rels: 0,
			RFReads: 8208, RFWrites: 5472,
		}},
		{"regmutex-loose-rr", transformed, NewRegMutexPolicy(cfg), rr, pinnedStats{
			Cycles: 78077, Instructions: 233040,
			Stall:    StallBreakdown{233040, 58263, 1, 14257, 0, 333, 6414},
			Attempts: 774124, Successes: 4800, Rels: 4800,
			RFReads: 289800, RFWrites: 203520,
		}},
		{"regmutex-blocking", transformed, blocking, DefaultTiming(), pinnedStats{
			Cycles: 81022, Instructions: 233040,
			Stall:    StallBreakdown{233040, 80463, 12, 4669, 0, 988, 4916},
			Attempts: 863337, Successes: 4800, Rels: 4800,
			RFReads: 289800, RFWrites: 203520,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k, global := c.build()
			d, err := New(DeviceSpec{Config: cfg, Timing: c.timing, Kernel: k}, WithPolicy(c.pol), WithGlobal(global))
			if err != nil {
				t.Fatal(err)
			}
			st, err := d.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := pinOf(st); got != c.want {
				t.Errorf("stats\n got %#v\nwant %#v", got, c.want)
			}
		})
	}
}

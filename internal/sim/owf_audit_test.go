package sim_test

import (
	"fmt"
	"testing"

	"regmutex/internal/audit"
	"regmutex/internal/core"
	"regmutex/internal/occupancy"
	"regmutex/internal/sim"
)

// TestAuditedOWFSharingPays runs the auditor every cycle over OWF on a
// kernel where sharing pays, so owfState.AuditCycle checks a live
// pair-lock table, and requires the audited run to reproduce the
// unaudited pin of TestPinnedSchedulerStats (the auditor only reads).
func TestAuditedOWFSharingPays(t *testing.T) {
	cfg := occupancy.GTX480()
	cfg.NumSMs = 2
	k, err := core.Prepare(sim.OWFPaysKernel())
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.New(sim.DeviceSpec{Config: cfg, Timing: sim.DefaultTiming(), Kernel: k},
		sim.WithPolicy(sim.NewOWFPolicy(cfg, 4)), sim.WithAudit(audit.Standard(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%T", d.SMs()[0].State()); got != "*sim.owfState" {
		t.Fatalf("SM policy state is %s, want *sim.owfState (sharing must pay)", got)
	}
	st, err := d.Run()
	if err != nil {
		t.Fatalf("audited OWF run failed: %v", err)
	}
	if st.Cycles != 7094 || st.Instructions != 7488 || st.AcquireSuccesses != 144 {
		t.Fatalf("audited run: cycles %d, instructions %d, owner acquires %d; want 7094, 7488, 144",
			st.Cycles, st.Instructions, st.AcquireSuccesses)
	}
}

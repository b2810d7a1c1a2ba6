package sim

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
)

// boundedSpinKernel counts to the given bound before exiting — finite
// work, unlike robust_test.go's effectively-infinite spinKernel.
func boundedSpinKernel(iters int64) *isa.Kernel {
	b := isa.NewBuilder("boundedspin", 2, 1, 32).SetGrid(4)
	b.Mov(0, isa.Imm(0))
	b.Mov(1, isa.Imm(iters))
	b.Label("loop").IAdd(0, isa.R(0), isa.Imm(1))
	b.Setp(0, isa.CmpLT, isa.R(0), isa.R(1))
	b.BraIf(0, "loop")
	b.Exit()
	return b.MustKernel()
}

func TestRunContextCancel(t *testing.T) {
	k := spinKernel(32) // 2^40 iterations: would run effectively forever
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from the first utilisation sample: the observer fires from
	// inside the cycle loop, so the run is provably mid-flight.
	canceledAt := make(chan time.Time, 1)
	var once sync.Once
	onSample := func(Sample) {
		once.Do(func() {
			canceledAt <- time.Now()
			cancel()
		})
	}
	d, err := New(DeviceSpec{Config: occupancy.GTX480(), Timing: DefaultTiming(), Kernel: k},
		WithPolicy(NewStaticPolicy(occupancy.GTX480())),
		WithObserver(ObserverFuncs{Sample: onSample}))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := d.RunContext(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		var start time.Time
		select {
		case start = <-canceledAt:
		default:
			t.Fatalf("run returned before its first sample: %v", err)
		}
		var ce *CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *CanceledError", err)
		}
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v should wrap ErrCanceled and context.Canceled", err)
		}
		if ce.Cycle <= 0 {
			t.Fatalf("CanceledError.Cycle = %d, want > 0 (mid-run)", ce.Cycle)
		}
		// The ctx poll stride is 4096 scheduler iterations — the abort
		// must be prompt, far under a watchdog epoch of simulated work.
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("cancellation took %s", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext ignored cancellation")
	}
}

// An already-canceled context aborts before the first cycle.
func TestRunContextPreCanceled(t *testing.T) {
	k := boundedSpinKernel(1000)
	d, err := New(DeviceSpec{Config: occupancy.GTX480(), Timing: DefaultTiming(), Kernel: k},
		WithPolicy(NewStaticPolicy(occupancy.GTX480())))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.RunContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// Run (no context) is untouched by the cancellation plumbing.
func TestRunBackgroundUnaffected(t *testing.T) {
	k := boundedSpinKernel(100)
	d, err := New(DeviceSpec{Config: occupancy.GTX480(), Timing: DefaultTiming(), Kernel: k},
		WithPolicy(NewStaticPolicy(occupancy.GTX480())))
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
}

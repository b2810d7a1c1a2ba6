package sim

import (
	"slices"
	"testing"

	"regmutex/internal/core"
)

// recordedSlot is a StallSlot with the warp named by its slot index, so
// slots of two separate runs compare.
type recordedSlot struct {
	Cycle         int64
	SM, Scheduler int
	Cause         StallCause
	Widx          int // -1 for a slot charged to no warp
}

// recorder keeps every callback it receives, and their interleaving.
type recorder struct {
	events  []Event
	samples []Sample
	stalls  []recordedSlot
	order   []byte // 'e', 's' or 't' per callback
}

func (r *recorder) OnEvent(ev Event) {
	r.events = append(r.events, ev)
	r.order = append(r.order, 'e')
}

func (r *recorder) OnCycleSample(s Sample) {
	r.samples = append(r.samples, s)
	r.order = append(r.order, 's')
}

func (r *recorder) OnStall(s StallSlot) {
	widx := -1
	if s.Warp != nil {
		widx = s.Warp.Widx
	}
	r.stalls = append(r.stalls, recordedSlot{Cycle: s.Cycle, SM: s.SM, Scheduler: s.Scheduler, Cause: s.Cause, Widx: widx})
	r.order = append(r.order, 't')
}

// TestTwoObserversSeeEverything attaches WithObserver twice to one
// regmutex run: each observer must receive every event, sample and
// stall slot, in the same order, that a lone observer receives.
func TestTwoObserversSeeEverything(t *testing.T) {
	cfg := smallCfg()
	res, err := core.Transform(memPeakKernel("observed", 24, 256, 3, 4), core.Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	run := func(obs ...*recorder) {
		t.Helper()
		opts := []Option{WithPolicy(NewRegMutexPolicy(cfg)), WithSampleInterval(64)}
		for _, o := range obs {
			opts = append(opts, WithObserver(o))
		}
		d, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: res.Kernel}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(); err != nil {
			t.Fatal(err)
		}
	}
	lone, first, second := &recorder{}, &recorder{}, &recorder{}
	run(lone)
	run(first, second)
	if len(lone.events) == 0 || len(lone.samples) == 0 || len(lone.stalls) == 0 {
		t.Fatalf("lone observer saw %d events, %d samples, %d stall slots; want some of each",
			len(lone.events), len(lone.samples), len(lone.stalls))
	}
	for i, r := range []*recorder{first, second} {
		if !slices.Equal(r.events, lone.events) {
			t.Errorf("observer %d: %d events differ from the lone observer's %d", i, len(r.events), len(lone.events))
		}
		if !slices.Equal(r.samples, lone.samples) {
			t.Errorf("observer %d: %d samples differ from the lone observer's %d", i, len(r.samples), len(lone.samples))
		}
		if !slices.Equal(r.stalls, lone.stalls) {
			t.Errorf("observer %d: %d stall slots differ from the lone observer's %d", i, len(r.stalls), len(lone.stalls))
		}
		if !slices.Equal(r.order, lone.order) {
			t.Errorf("observer %d: callbacks interleave differently from the lone observer's", i)
		}
	}
}

// TestMultiObserverDropsNil checks MultiObserver's shapes: nil entries
// are dropped, a single observer comes back as itself, and none at all
// is nil.
func TestMultiObserverDropsNil(t *testing.T) {
	a, b := &recorder{}, &recorder{}
	if got := MultiObserver(); got != nil {
		t.Errorf("MultiObserver() = %v, want nil", got)
	}
	if got := MultiObserver(nil, nil); got != nil {
		t.Errorf("MultiObserver(nil, nil) = %v, want nil", got)
	}
	if got := MultiObserver(nil, a, nil); got != Observer(a) {
		t.Errorf("MultiObserver(nil, a, nil) = %v, want a itself", got)
	}
	got, ok := MultiObserver(a, nil, b).(multiObserver)
	if !ok || len(got) != 2 || got[0] != Observer(a) || got[1] != Observer(b) {
		t.Fatalf("MultiObserver(a, nil, b) = %#v, want [a b]", got)
	}
	got.OnEvent(Event{Kind: "cta-launch"})
	got.OnCycleSample(Sample{Cycle: 3})
	got.OnStall(StallSlot{Cycle: 4, Cause: CauseBarrier})
	for i, r := range []*recorder{a, b} {
		if string(r.order) != "est" {
			t.Errorf("observer %d saw callbacks %q, want \"est\"", i, r.order)
		}
	}
}

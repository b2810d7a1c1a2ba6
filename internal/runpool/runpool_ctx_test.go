package runpool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// A bounded pool evicts least-recently-used completed entries once the
// cap is exceeded, and only completed ones.
func TestLRUEviction(t *testing.T) {
	p := NewBounded(1, 2)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		p.SubmitKeyed(key, func() (any, error) { return key, nil })
	}
	if got := p.MemoLen(); got != 2 {
		t.Fatalf("MemoLen = %d, want 2", got)
	}
	if got := p.Evictions(); got != 3 {
		t.Fatalf("Evictions = %d, want 3", got)
	}
	// The two newest keys survive; resubmitting them is a hit, an
	// evicted key re-runs.
	ran := false
	p.SubmitKeyed("k4", func() (any, error) { ran = true; return nil, nil })
	if ran {
		t.Fatal("k4 re-ran despite being retained")
	}
	p.SubmitKeyed("k0", func() (any, error) { ran = true; return nil, nil })
	if !ran {
		t.Fatal("evicted k0 did not re-run")
	}
}

// Touching a retained key refreshes its LRU position.
func TestLRUTouchRefreshes(t *testing.T) {
	p := NewBounded(1, 2)
	p.SubmitKeyed("a", func() (any, error) { return nil, nil })
	p.SubmitKeyed("b", func() (any, error) { return nil, nil })
	p.SubmitKeyed("a", func() (any, error) { return nil, nil }) // a now MRU
	p.SubmitKeyed("c", func() (any, error) { return nil, nil }) // evicts b
	ran := false
	p.SubmitKeyed("a", func() (any, error) { ran = true; return nil, nil })
	if ran {
		t.Fatal("recently touched key was evicted")
	}
	p.SubmitKeyed("b", func() (any, error) { ran = true; return nil, nil })
	if !ran {
		t.Fatal("LRU key b should have been evicted")
	}
}

// In-flight entries are never evicted, even when they push the table
// over its cap; they are trimmed once complete and displaced.
func TestLRUNeverEvictsInFlight(t *testing.T) {
	p := NewBounded(4, 1)
	release := make(chan struct{})
	var fs []*Future
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("inflight%d", i)
		f, _ := p.SubmitKeyedCtx(context.Background(), key, func(context.Context) (any, error) {
			<-release
			return nil, nil
		})
		fs = append(fs, f)
	}
	if got := p.MemoLen(); got != 3 {
		t.Fatalf("in-flight MemoLen = %d, want 3 (transient overshoot allowed)", got)
	}
	if got := p.Evictions(); got != 0 {
		t.Fatalf("evicted %d in-flight entries", got)
	}
	close(release)
	for _, f := range fs {
		f.Wait()
	}
	// The next submission triggers a trim back toward the cap.
	p.SubmitKeyed("after", func() (any, error) { return nil, nil })
	if got := p.MemoLen(); got != 1 {
		t.Fatalf("post-completion MemoLen = %d, want 1", got)
	}
}

// The task's private context is canceled only when every submitter that
// joined the flight has canceled.
func TestRefcountedCancel(t *testing.T) {
	p := NewBounded(4, 0)
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	started := make(chan struct{})
	canceled := make(chan struct{})
	f1, hit1 := p.SubmitKeyedCtx(ctx1, "shared", func(tctx context.Context) (any, error) {
		close(started)
		select {
		case <-tctx.Done():
			close(canceled)
			return nil, tctx.Err()
		case <-time.After(5 * time.Second):
			return nil, errors.New("task context never canceled")
		}
	})
	<-started
	f2, hit2 := p.SubmitKeyedCtx(ctx2, "shared", nil)
	if hit1 || !hit2 || f1 != f2 {
		t.Fatalf("expected second submit to join the flight (hit1=%v hit2=%v same=%v)", hit1, hit2, f1 == f2)
	}

	cancel1()
	select {
	case <-canceled:
		t.Fatal("task canceled while a second submitter was still interested")
	case <-time.After(50 * time.Millisecond):
	}

	cancel2()
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("task context not canceled after the last submitter left")
	}
	if _, err := f1.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A Background submitter pins the flight: cancelling other submitters
// never cancels the task.
func TestBackgroundSubmitterPins(t *testing.T) {
	p := NewBounded(4, 0)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	var sawCancel atomic.Bool
	f, _ := p.SubmitKeyedCtx(ctx, "pinned", func(tctx context.Context) (any, error) {
		close(started)
		select {
		case <-tctx.Done():
			sawCancel.Store(true)
			return nil, tctx.Err()
		case <-release:
			return "ok", nil
		}
	})
	<-started
	p.SubmitKeyedCtx(context.Background(), "pinned", nil) // pins
	cancel()
	time.Sleep(50 * time.Millisecond)
	close(release)
	if v, err := f.Wait(); err != nil || v != "ok" {
		t.Fatalf("Wait = %v, %v; want ok, nil", v, err)
	}
	if sawCancel.Load() {
		t.Fatal("pinned task saw cancellation")
	}
}

// Cancellation results are not memoized: the next submission of the same
// key runs the task again and can succeed.
func TestCanceledResultNotCached(t *testing.T) {
	p := NewBounded(4, 0)
	ctx, cancel := context.WithCancel(context.Background())
	f, _ := p.SubmitKeyedCtx(ctx, "retry", func(tctx context.Context) (any, error) {
		<-tctx.Done()
		return nil, tctx.Err()
	})
	cancel()
	if _, err := f.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("first attempt err = %v, want Canceled", err)
	}
	// forget() may race with Wait returning; retry briefly.
	deadline := time.After(2 * time.Second)
	for {
		f2, hit := p.SubmitKeyedCtx(context.Background(), "retry", func(context.Context) (any, error) {
			return "second", nil
		})
		if !hit {
			if v, err := f2.Wait(); err != nil || v != "second" {
				t.Fatalf("retry = %v, %v; want second, nil", v, err)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatal("canceled result stayed cached")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Joining a flight whose context is already canceled but whose future
// has not completed replaces it with a fresh task (stale-flight
// replacement), so a live submitter is not handed a doomed result.
func TestStaleFlightReplaced(t *testing.T) {
	p := NewBounded(4, 0)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	sawCancel := make(chan struct{})
	block := make(chan struct{})
	f1, _ := p.SubmitKeyedCtx(ctx, "stale", func(tctx context.Context) (any, error) {
		close(started)
		<-tctx.Done()
		close(sawCancel)
		<-block // doomed, but slow to actually return
		return nil, tctx.Err()
	})
	<-started
	cancel()
	// Wait until the flight's private context is observably canceled.
	<-sawCancel
	f2, hit := p.SubmitKeyedCtx(context.Background(), "stale", func(context.Context) (any, error) {
		return "fresh", nil
	})
	if hit || f2 == f1 {
		t.Fatal("joined a canceled flight instead of replacing it")
	}
	if v, err := f2.Wait(); err != nil || v != "fresh" {
		t.Fatalf("replacement = %v, %v; want fresh, nil", v, err)
	}
	close(block)
}

// WaitCtx returns early on context cancellation without disturbing the
// task or other waiters.
func TestWaitCtx(t *testing.T) {
	p := New(2)
	release := make(chan struct{})
	f := p.Submit(func() (any, error) {
		<-release
		return 7, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.WaitCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitCtx err = %v, want Canceled", err)
	}
	close(release)
	if v, err := f.WaitCtx(context.Background()); err != nil || v != 7 {
		t.Fatalf("WaitCtx = %v, %v; want 7, nil", v, err)
	}
}

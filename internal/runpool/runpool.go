// Package runpool is the parallel experiment engine behind the
// paperbench harness and the gpusimd service: it fans independent
// simulation runs out across a bounded set of worker goroutines and
// memoizes keyed results, so sweeps that revisit an identical (kernel,
// machine, policy, seed) point never re-simulate it.
//
// The contract that keeps output deterministic is split between the pool
// and its callers: tasks may finish in any order, but every submission
// returns a Future and callers collect futures in submission order. A
// one-worker pool runs each task inline before Submit returns, preserving
// the exact serial execution order of the pre-pool harness (`-j 1`).
//
// Two daemon-oriented extensions ride on the same contract without
// changing the CLI paths:
//
//   - Context-aware keyed submission (SubmitKeyedCtx) runs each keyed
//     task under its own context that is canceled only when every
//     submitter that joined the flight has canceled — single-flight
//     deduplication with refcounted cancellation. Results that are
//     themselves cancellations are never cached, so a later submission
//     of the same key re-runs the task.
//   - A bounded memo table (NewBounded) evicts the least-recently-used
//     completed entry once the cap is exceeded, so a long-lived daemon
//     cannot grow the cache without limit. New keeps the unbounded
//     behavior the CLIs rely on.
package runpool

import (
	"container/list"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Future is the pending (or memoized) result of one submitted task.
type Future struct {
	done chan struct{}
	val  any
	err  error

	// Interest accounting for context-aware keyed tasks. The task's
	// private context (canceled via cancel) is released only when every
	// attached submitter context is done; a submitter whose context can
	// never be canceled pins the task for its whole lifetime. cancel is
	// nil for plain (context-free) submissions.
	imu     sync.Mutex
	waiters int
	pinned  bool
	cancel  context.CancelFunc
}

// Wait blocks until the task finishes and returns its result. It may be
// called any number of times from any goroutine; a memoized future hands
// every waiter the same value (and the same error, if the task failed).
func (f *Future) Wait() (any, error) {
	<-f.done
	return f.val, f.err
}

// WaitCtx is Wait with a deadline: it returns the task's result, or
// ctx.Err() as soon as ctx is done. Returning early does not release the
// waiter's interest in the task — interest follows the context passed at
// submission time, not the one passed here.
func (f *Future) WaitCtx(ctx context.Context) (any, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// attach registers a submitter context's interest in this future: the
// task's context stays live until every attached context is done. A
// context that can never be canceled (Done() == nil, e.g.
// context.Background()) pins the task forever, matching the legacy
// SubmitKeyed behavior.
func (f *Future) attach(ctx context.Context) {
	if f.cancel == nil {
		return
	}
	select {
	case <-f.done:
		return
	default:
	}
	f.imu.Lock()
	if f.pinned {
		f.imu.Unlock()
		return
	}
	if ctx.Done() == nil {
		f.pinned = true
		f.imu.Unlock()
		return
	}
	f.waiters++
	f.imu.Unlock()
	go func() {
		select {
		case <-ctx.Done():
			f.imu.Lock()
			f.waiters--
			last := f.waiters == 0 && !f.pinned
			f.imu.Unlock()
			if last {
				f.cancel()
			}
		case <-f.done:
		}
	}()
}

// memoEntry is one keyed task in the memo table / LRU list.
type memoEntry struct {
	key string
	f   *Future
	ctx context.Context // the task's private context
}

// Pool runs tasks on at most Workers goroutines and caches keyed results.
// The zero value is not usable; construct with New or NewBounded.
type Pool struct {
	workers int
	sem     chan struct{}

	mu    sync.Mutex
	memo  map[string]*list.Element // key -> element holding *memoEntry
	lru   list.List                // front = most recently used
	limit int                      // max memo entries; 0 = unbounded

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// New returns a pool running at most workers tasks concurrently with an
// unbounded memo table (every keyed result is retained for the pool's
// lifetime — the CLI sweep behavior).
// workers <= 0 selects GOMAXPROCS. workers == 1 runs every task inline at
// submission time — no goroutines, the serial path.
func New(workers int) *Pool { return NewBounded(workers, 0) }

// NewBounded is New with a cap on retained keyed results: once more than
// memoLimit keyed tasks have been submitted, the least-recently-used
// completed entry is evicted to make room. In-flight tasks are never
// evicted (single-flight deduplication must keep working), so the table
// may transiently exceed the cap while more than memoLimit tasks run at
// once. memoLimit <= 0 means unbounded.
func NewBounded(workers, memoLimit int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if memoLimit < 0 {
		memoLimit = 0
	}
	return &Pool{
		workers: workers,
		sem:     make(chan struct{}, workers),
		memo:    map[string]*list.Element{},
		limit:   memoLimit,
	}
}

// Workers returns the concurrency limit.
func (p *Pool) Workers() int { return p.workers }

// Submit schedules fn and returns its future. Tasks must be independent:
// a task that waits on another future can deadlock the pool once every
// worker is parked waiting.
func (p *Pool) Submit(fn func() (any, error)) *Future {
	f := &Future{done: make(chan struct{})}
	p.start(f, fn)
	return f
}

func (p *Pool) start(f *Future, fn func() (any, error)) {
	if p.workers == 1 {
		f.val, f.err = fn()
		close(f.done)
		return
	}
	go func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		f.val, f.err = fn()
		close(f.done)
	}()
}

// SubmitKeyed schedules fn unless a task with the same key was already
// submitted, in which case the earlier future is returned and fn never
// runs (single-flight memoization). Errors are cached like values: a
// failed configuration fails identically on every revisit, which keeps
// sweep output independent of submission history.
func (p *Pool) SubmitKeyed(key string, fn func() (any, error)) *Future {
	f, _ := p.SubmitKeyedCtx(context.Background(), key, func(context.Context) (any, error) {
		return fn()
	})
	return f
}

// SubmitKeyedCtx is SubmitKeyed with cancellation: the task runs under a
// private context that is canceled only once every submitter that joined
// the flight (the original submission and every deduplicated revisit) has
// canceled its own context. The second return value reports whether the
// call joined an existing flight or cached result (a cache hit) instead
// of starting the task.
//
// Cancellation results are not memoized: when fn returns an error that
// wraps context.Canceled or context.DeadlineExceeded, the entry is
// dropped so a later submission of the same key runs the task again.
// Waiters already attached to the canceled flight still receive the
// cancellation error.
func (p *Pool) SubmitKeyedCtx(ctx context.Context, key string, fn func(context.Context) (any, error)) (*Future, bool) {
	p.mu.Lock()
	if el, ok := p.memo[key]; ok {
		e := el.Value.(*memoEntry)
		// A flight whose private context is already canceled can only
		// end in a cancellation error; don't join it — replace it with a
		// fresh task so a live submitter gets a real result. (A completed
		// entry still in the table holds a real result even if its
		// context was canceled late: cancellation results are forgotten
		// before their future completes.)
		stale := false
		if e.ctx.Err() != nil {
			select {
			case <-e.f.done:
			default:
				stale = true
			}
		}
		if !stale {
			p.lru.MoveToFront(el)
			p.mu.Unlock()
			e.f.attach(ctx)
			p.hits.Add(1)
			return e.f, true
		}
		p.lru.Remove(el)
		delete(p.memo, key)
	}
	tctx, cancel := context.WithCancel(context.Background())
	f := &Future{done: make(chan struct{}), cancel: cancel}
	el := p.lru.PushFront(&memoEntry{key: key, f: f, ctx: tctx})
	p.memo[key] = el
	p.evictLocked()
	p.mu.Unlock()
	f.attach(ctx)
	p.misses.Add(1)
	p.start(f, func() (any, error) {
		v, err := fn(tctx)
		if isCancellation(err) {
			p.forget(key, f)
		}
		return v, err
	})
	return f, false
}

// evictLocked trims the memo table to the configured limit, dropping
// least-recently-used completed entries. Called with p.mu held.
func (p *Pool) evictLocked() {
	if p.limit <= 0 {
		return
	}
	for el := p.lru.Back(); el != nil && p.lru.Len() > p.limit; {
		prev := el.Prev()
		e := el.Value.(*memoEntry)
		select {
		case <-e.f.done:
			p.lru.Remove(el)
			delete(p.memo, e.key)
			p.evictions.Add(1)
		default:
			// In flight: skip — evicting it would break single-flight.
		}
		el = prev
	}
}

// forget removes a key's entry if it still maps to the given future
// (a replacement submitted in the meantime must not be dropped).
func (p *Pool) forget(key string, f *Future) {
	p.mu.Lock()
	if el, ok := p.memo[key]; ok && el.Value.(*memoEntry).f == f {
		p.lru.Remove(el)
		delete(p.memo, key)
	}
	p.mu.Unlock()
}

func isCancellation(err error) bool {
	return err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// CacheStats reports keyed submissions served from the memo table (hits)
// versus tasks actually executed (misses).
func (p *Pool) CacheStats() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}

// Evictions reports memo entries dropped by the LRU bound.
func (p *Pool) Evictions() int64 { return p.evictions.Load() }

// MemoLen reports the current number of retained keyed entries.
func (p *Pool) MemoLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.memo)
}

package main

import (
	"sync"
	"sync/atomic"
	"time"

	"regmutex/internal/harness"
	"regmutex/internal/obs"
	"regmutex/internal/service"
	"regmutex/internal/workloads"
)

// Shape of the serve-mix request stream. Requests come in blocks of
// four: one miss at a seeded position and three hits. A hit repeats one
// of the hot fingerprints, one per Table I kernel with a seeded input
// seed, all computed during set-up; their 5×16 memo entries stay far
// inside memoLimit, so hits never fall out of the LRU. A miss carries a
// fresh seed, never seen before, and the misses of each run of 16 cover
// every kernel once in a seeded order. Every seed thus gives the same
// mix of kernels on both paths, and the same set-up work.
const (
	blockLen  = 4
	memoLimit = 256
)

// request is one generated serve-mix submission.
type request struct {
	kernel string
	seed   uint64
	hit    bool // repeats a hot fingerprint
}

// stream is the seeded serve-mix request generator: at(i) is a pure
// function of the seed and i.
type stream struct {
	seed    uint64
	kernels []string // every Table I kernel, sorted
	hot     []request
}

func newStream(seed uint64) *stream {
	s := &stream{seed: seed, kernels: workloads.Names()}
	for h, k := range s.kernels {
		s.hot = append(s.hot, request{kernel: k, seed: mix(seed, 2, uint64(h)), hit: true})
	}
	return s
}

// at returns the i-th request of the stream.
func (s *stream) at(i uint64) request {
	block, pos := i/blockLen, i%blockLen
	if pos == mix(s.seed, 3, block)%blockLen {
		n := uint64(len(s.kernels))
		perm := permutation(len(s.kernels), mix(s.seed, 4, block/n))
		return request{kernel: s.kernels[perm[block%n]], seed: mix(s.seed, 5, block)}
	}
	return s.hot[mix(s.seed, 6, i)%uint64(len(s.hot))]
}

func (r request) submit() service.SubmitRequest {
	seed := r.seed
	return service.SubmitRequest{Kind: "run", Workload: r.kernel, Policy: "all",
		Scale: benchScale, SMs: benchSMs, Seed: &seed}
}

// serveBench is the serve-mix workload: an in-process gpusimd service
// and a closed loop of procs() clients, each calling Submit and waiting
// on Job.Done() before taking the next request of the shared stream.
type serveBench struct {
	svc    *service.Service
	stream *stream
	next   atomic.Uint64 // next stream index
	warmup int
	tr     serveTrace
}

// serveTrace sums a traced phase's service outcomes.
type serveTrace struct {
	mu                   sync.Mutex
	hitE2E, missE2E      []float64 // ms
	memoHits, policyRuns int
	refused, queueMax    int
}

func newServeBench(seed uint64) (*serveBench, error) {
	clients := procs()
	svc, err := service.New(service.Config{
		Workers: clients, PoolWorkers: clients, Par: 1,
		QueueDepth: 4 * clients, MemoLimit: memoLimit,
	})
	if err != nil {
		return nil, err
	}
	svc.Start()
	b := &serveBench{svc: svc, stream: newStream(seed)}
	// Warm-up: compute every hot fingerprint, so the timed phases see
	// the designed hit share from their first request.
	var wg sync.WaitGroup
	var mu sync.Mutex
	work := make(chan request, len(b.stream.hot))
	for _, r := range b.stream.hot {
		work <- r
	}
	close(work)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				if _, ok, _ := b.do(r, nil); !ok {
					mu.Lock()
					b.warmup++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return b, nil
}

// do submits one request, waits for it and checks every policy row
// against the direct-run pin for its kernel. It returns the op latency
// (Submit to Done), whether the result was correct, and whether the
// service refused the submission. With a ledger, Submit and the job's
// queue and run stages are charged to it.
func (b *serveBench) do(r request, led *ledger) (lat time.Duration, ok, refused bool) {
	tr := &b.tr
	t0 := time.Now()
	j, eb := b.svc.Submit(r.submit())
	t1 := time.Now()
	if eb != nil {
		if led != nil {
			tr.mu.Lock()
			tr.refused++
			tr.mu.Unlock()
		}
		return 0, false, true
	}
	qlen := b.svc.QueueLen()
	<-j.Done()
	lat = time.Since(t0)

	v := j.View()
	ok = v.State == service.StateDone && v.Result != nil && v.Result.FailedRows == 0 &&
		len(v.Result.Rows) == len(harness.PolicyNames)
	if ok {
		pins := mustPins()
		for _, row := range v.Result.Rows {
			pin := pins.Sim[r.kernel+"/"+row.Policy]
			ok = ok && row.Cycles == pin.Cycles && row.Instructions == pin.Instructions
		}
	}
	if led != nil {
		queue, run := jobStages(b.svc.Spans(), j.ID, t1)
		led.add("service.submit", t1.Sub(t0))
		led.add("service.queue", queue)
		led.add("service.run", run)
		tr.mu.Lock()
		tr.queueMax = max(tr.queueMax, qlen)
		if v.Result != nil {
			tr.memoHits += v.Result.MemoHits
			tr.policyRuns += len(v.Result.Rows)
			ms := float64(lat) / float64(time.Millisecond)
			if v.Result.MemoHits == len(v.Result.Rows) {
				tr.hitE2E = append(tr.hitE2E, ms)
			} else {
				tr.missE2E = append(tr.missE2E, ms)
			}
		}
		tr.mu.Unlock()
	}
	return lat, ok, false
}

// jobStages reads a finished job's queue and run spans from the
// service's recorder and returns the parts of them after the Submit
// call returned at t1 (the part before it is already charged to
// Submit). The service records the spans just after it closes Done, so
// this waits briefly for them.
func jobStages(rec *obs.SpanRecorder, id string, t1 time.Time) (queue, run time.Duration) {
	for tries := 0; tries < 10000; tries++ {
		var q, r *obs.Span
		for _, sp := range rec.ByTrace(id) {
			sp := sp
			switch sp.Stage {
			case obs.StageQueue:
				q = &sp
			case obs.StageRun:
				r = &sp
			}
		}
		if q != nil && r != nil {
			after := func(from, to time.Time) time.Duration {
				if from.Before(t1) {
					from = t1
				}
				return max(0, to.Sub(from))
			}
			return after(q.Start, q.End), after(r.Start, r.End)
		}
		time.Sleep(10 * time.Microsecond)
	}
	return 0, 0
}

func (b *serveBench) run(until time.Time, led *ledger, ph *phase) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < procs(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				lat, ok, refused := b.do(b.stream.at(b.next.Add(1)-1), led)
				mu.Lock()
				if refused {
					ph.attempted++
					ph.failed++
				} else {
					ph.record(lat, lat, ok)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func (b *serveBench) warmupFailures() int { return b.warmup }

// layers reports the service ledger, with host times at reference speed.
func (b *serveBench) layers(plain, traced phase, led *ledger, _ *crossLedger, out map[string]metric) {
	t := &b.tr
	f := traced.wallScale()
	jobs := float64(len(t.hitE2E) + len(t.missE2E))
	out["service.submit_us"] = metric{float64(led.top["service.submit"]) / float64(time.Microsecond) * f / jobs, "us"}
	out["service.hit_e2e_ms"] = metric{median(t.hitE2E) * f, "ms"}
	out["service.miss_e2e_ms"] = metric{median(t.missE2E) * f, "ms"}
	out["runpool.memo_hit_frac"] = metric{float64(t.memoHits) / float64(t.policyRuns), "frac"}
	out["runpool.memo_len"] = metric{float64(b.svc.MemoLen()), "count"}
	out["service.refused"] = metric{float64(t.refused), "count"}
	out["service.queue_len_max"] = metric{float64(t.queueMax), "count"}
	out["service.alloc_kb_per_job"] = metric{float64(plain.mem.totalAlloc) / 1024 / float64(plain.completed()), "KiB"}
}

func (b *serveBench) close() { b.svc.Close() }

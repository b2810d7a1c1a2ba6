package service

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// JournalRecord is one line of a job journal — gpusimd's crash-recovery
// journal and the router's failover-replay journal share the shape: an
// "accept" per admitted job, a "finish" per terminal state, and on the
// router an "assign" per instance placement. Fields a tier does not use
// stay empty and are omitted on disk.
type JournalRecord struct {
	Op       string         `json:"op"` // "accept" | "assign" | "finish"
	ID       string         `json:"id"`
	FP       string         `json:"fp,omitempty"` // hex fingerprint (router accept)
	Req      *SubmitRequest `json:"req,omitempty"`
	Instance string         `json:"instance,omitempty"` // assign only
	RemoteID string         `json:"remote_id,omitempty"`
	End      string         `json:"state,omitempty"` // finish only
}

// pendingJobs folds a journal into its accepted-but-unfinished records,
// in acceptance order — the replay set — and the highest job number any
// accept record used under prefix. New IDs must start past that number,
// not just past the pending ones: an ID whose job finished is still in
// the journal, and reusing it would let that old finish record swallow
// the new job on the next replay.
func pendingJobs(records []JournalRecord, prefix string) (pending []JournalRecord, last int64) {
	finished := make(map[string]bool)
	for _, rec := range records {
		if rec.Op == "finish" {
			finished[rec.ID] = true
		}
	}
	for _, rec := range records {
		if rec.Op != "accept" {
			continue
		}
		if n, ok := jobNumber(prefix, rec.ID); ok && n > last {
			last = n
		}
		if !finished[rec.ID] && rec.Req != nil {
			pending = append(pending, rec)
		}
	}
	return pending, last
}

func jobNumber(prefix, id string) (int64, bool) {
	var n int64
	_, err := fmt.Sscanf(id, prefix+"%d", &n)
	return n, err == nil
}

// JobTable is the ID-keyed job set a tier serves: it mints IDs
// (prefix + six-digit number) past every journaled one, looks jobs up,
// and counts what a drain still waits for.
type JobTable[J interface{ State() string }] struct {
	prefix string
	mu     sync.Mutex
	jobs   map[string]J
	last   int64 // highest job number minted or journaled
}

// NewJobTable builds an empty table minting IDs under prefix.
func NewJobTable[J interface{ State() string }](prefix string) *JobTable[J] {
	return &JobTable[J]{prefix: prefix, jobs: make(map[string]J)}
}

// Replay folds journal records (see pendingJobs), registers a job built
// by mk for every pending record, and returns those jobs in acceptance
// order. mk receives the record and its job number. Fresh IDs continue
// past the highest journaled one.
func (t *JobTable[J]) Replay(records []JournalRecord, mk func(rec JournalRecord, n int64) J) []J {
	pending, last := pendingJobs(records, t.prefix)
	out := make([]J, len(pending))
	for i, rec := range pending {
		n, _ := jobNumber(t.prefix, rec.ID)
		out[i] = mk(rec, n)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last = max(t.last, last)
	for i, rec := range pending {
		t.jobs[rec.ID] = out[i]
	}
	return out
}

// Mint registers a job under a fresh ID; mk builds it from the ID and
// its job number.
func (t *JobTable[J]) Mint(mk func(id string, n int64) J) J {
	t.mu.Lock()
	t.last++
	n := t.last
	t.mu.Unlock()
	id := fmt.Sprintf("%s%06d", t.prefix, n)
	j := mk(id, n)
	t.mu.Lock()
	t.jobs[id] = j
	t.mu.Unlock()
	return j
}

// Get looks a job up by ID.
func (t *JobTable[J]) Get(id string) (J, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// Forget drops a job that was never admitted.
func (t *JobTable[J]) Forget(id string) {
	t.mu.Lock()
	delete(t.jobs, id)
	t.mu.Unlock()
}

// All snapshots every tracked job, in no particular order.
func (t *JobTable[J]) All() []J {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]J, 0, len(t.jobs))
	for _, j := range t.jobs {
		out = append(out, j)
	}
	return out
}

// Unfinished reports how many tracked jobs are not yet terminal.
func (t *JobTable[J]) Unfinished() int {
	n := 0
	for _, j := range t.All() {
		if !Terminal(j.State()) {
			n++
		}
	}
	return n
}

// Drain waits until every tracked job is terminal, then calls stop. It
// never abandons an accepted job: if ctx expires first it returns an
// error and the caller decides whether to hard-close (journaled jobs
// replay on restart). The caller refuses new work before calling it.
func (t *JobTable[J]) Drain(ctx context.Context, stop func()) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if t.Unfinished() == 0 {
			stop()
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain: %w (%d job(s) unfinished)", ctx.Err(), t.Unfinished())
		case <-tick.C:
		}
	}
}

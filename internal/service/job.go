package service

import (
	"context"
	"sync"
	"time"
)

// Lifecycle is the job state machine both tiers share: gpusimd's Job
// and the router's cluster.Job embed it. It carries the submission, the
// state (queued -> running -> done|failed|canceled, terminal states
// sticky), the outcome, the accepted/started/finished span anchors, and
// the resumable event log behind GET /v1/jobs/{id}/events. All mutable
// state is guarded by mu; the event buffer is append-only and broadcast
// by closing and replacing the changed channel, so any number of SSE
// watchers can wait for news without the job tracking them individually.
type Lifecycle struct {
	ID  string
	Req SubmitRequest // Req.TraceID is the job's trace (its own ID when the client sent none)

	mu         sync.Mutex
	state      string
	coalesced  bool
	err        *ErrorBody
	result     *JobResult
	acceptedAt time.Time
	startedAt  time.Time
	finishedAt time.Time
	events     []Event
	changed    chan struct{} // closed on every publish, then replaced
	done       chan struct{} // closed once the job reaches a terminal state
}

// NewLifecycle starts a job's lifecycle: queued, accepted now, with the
// queued state as event 0.
func NewLifecycle(id string, req SubmitRequest) *Lifecycle {
	if req.TraceID == "" {
		req.TraceID = id
	}
	return &Lifecycle{
		ID:         id,
		Req:        req,
		state:      StateQueued,
		acceptedAt: time.Now(),
		events:     []Event{{Seq: 0, Type: "state", State: StateQueued}},
		changed:    make(chan struct{}),
		done:       make(chan struct{}),
	}
}

// Terminal reports whether state is one a job never leaves.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// Publish appends an event, re-sequenced into this job's log, and wakes
// every watcher.
func (l *Lifecycle) Publish(ev Event) {
	l.mu.Lock()
	l.appendLocked(ev)
	l.mu.Unlock()
}

func (l *Lifecycle) appendLocked(ev Event) {
	ev.Seq = len(l.events)
	l.events = append(l.events, ev)
	close(l.changed)
	l.changed = make(chan struct{})
}

// SetState transitions the job, publishing a state event. Terminal
// states are sticky: once done/failed/canceled the job never moves
// again (a late cancel on a finished job is a no-op), and SetState
// reports whether the transition happened.
func (l *Lifecycle) SetState(state string, err *ErrorBody, result *JobResult) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if Terminal(l.state) {
		return false
	}
	l.state = state
	if state == StateRunning {
		l.startedAt = time.Now()
	}
	if err != nil {
		l.err = err
	}
	if result != nil {
		l.result = result
	}
	ev := Event{Type: "state", State: state}
	if err != nil {
		ev.Msg = err.Message
	}
	l.appendLocked(ev)
	if Terminal(state) {
		l.finishedAt = time.Now()
		close(l.done)
	}
	return true
}

// SetCoalesced marks the job as served (at least partly) by dedup.
func (l *Lifecycle) SetCoalesced() {
	l.mu.Lock()
	l.coalesced = true
	l.mu.Unlock()
}

// State returns the job's current state.
func (l *Lifecycle) State() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// Done is closed when the job reaches a terminal state.
func (l *Lifecycle) Done() <-chan struct{} { return l.done }

// Status is a consistent snapshot of a job's outward state, the common
// part of both tiers' JobView.
type Status struct {
	State     string
	Coalesced bool
	Err       *ErrorBody
	Result    *JobResult
}

// Status snapshots the job's state and outcome.
func (l *Lifecycle) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Status{State: l.state, Coalesced: l.coalesced, Err: l.err, Result: l.result}
}

// Times snapshots the lifecycle span anchors: accepted at admission (or
// journal replay), started when work began, finished at the terminal
// transition. Unreached anchors are zero.
func (l *Lifecycle) Times() (accepted, started, finished time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acceptedAt, l.startedAt, l.finishedAt
}

// Trace returns the job's trace ID (the client's X-Trace-Context, the
// request ID, or the job's own ID — first one present wins).
func (l *Lifecycle) Trace() string { return l.Req.TraceID }

// EventsSince returns every event with Seq >= since plus a channel that
// is closed the next time anything is published — the SSE long-poll
// primitive. Callers loop: drain events, then wait on the channel.
func (l *Lifecycle) EventsSince(since int) ([]Event, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	if since < len(l.events) {
		out = append(out, l.events[since:]...)
	}
	return out, l.changed
}

// Job is one accepted gpusimd submission: the shared Lifecycle plus the
// executor's scheduling state.
type Job struct {
	*Lifecycle
	Kind     string
	Priority int
	seq      int64 // queue tiebreaker (FIFO within a priority level)

	cancel context.CancelFunc // cancels this job's interest in its sims; guarded by mu
}

func newJob(id string, req SubmitRequest, seq int64) *Job {
	return &Job{
		Lifecycle: NewLifecycle(id, req),
		Kind:      req.ResolvedKind(),
		Priority:  req.Priority,
		seq:       seq,
	}
}

// spans reports the job's queue-wait, run, and end-to-end durations.
// A job canceled while queued never ran: its run span is zero and its
// queue wait ends at the terminal transition.
func (j *Job) spans() (queueWait, run, e2e time.Duration) {
	accepted, started, finished := j.Times()
	if finished.IsZero() {
		return 0, 0, 0
	}
	e2e = finished.Sub(accepted)
	if started.IsZero() {
		return e2e, 0, e2e
	}
	return started.Sub(accepted), finished.Sub(started), e2e
}

// View snapshots the job for JSON serving.
func (j *Job) View() JobView {
	st := j.Status()
	return JobView{
		ID:        j.ID,
		Kind:      j.Kind,
		State:     st.State,
		Coalesced: st.Coalesced,
		Priority:  j.Priority,
		Client:    j.Req.Client,
		Error:     st.Err,
		Result:    st.Result,
	}
}

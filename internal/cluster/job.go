package cluster

import (
	"fmt"
	"sync"

	"regmutex/internal/obs"
	"regmutex/internal/service"
)

// Job is one submission accepted by the router: the instance job's
// lifecycle (service.Lifecycle — state, outcome, and its own event log,
// so a client streaming from the router sees a stable, resumable
// sequence no matter how many instance failovers happen underneath)
// plus where the job is placed.
type Job struct {
	*service.Lifecycle
	FP uint64

	// routeSpan is the root span every attempt/backoff/failover span of
	// this job parents under.
	routeSpan string

	mu       sync.Mutex
	instance string // current / final placement (name)
	remoteID string // job ID on that instance
	attempts int    // instances tried
	canceled bool
}

// JobView is the router's JSON shape for a job.
type JobView struct {
	ID          string             `json:"id"`
	State       string             `json:"state"`
	Fingerprint string             `json:"fingerprint"`
	Instance    string             `json:"instance,omitempty"`
	RemoteID    string             `json:"remote_id,omitempty"`
	Attempts    int                `json:"attempts,omitempty"`
	Coalesced   bool               `json:"coalesced,omitempty"`
	Error       *service.ErrorBody `json:"error,omitempty"`
	Result      *service.JobResult `json:"result,omitempty"`
}

func newJob(id string, req service.SubmitRequest, metrics *obs.Registry) *Job {
	return &Job{Lifecycle: service.NewLifecycle(id, req, metrics, "cluster"), FP: req.Fingerprint()}
}

// assign records a placement attempt and publishes it as a log event so
// stream watchers see failovers happen.
func (j *Job) assign(instance, remoteID string) {
	j.mu.Lock()
	j.instance, j.remoteID = instance, remoteID
	j.attempts++
	n := j.attempts
	j.mu.Unlock()
	j.Publish(service.Event{Type: "log",
		Msg: fmt.Sprintf("routed to %s as %s (attempt %d)", instance, remoteID, n)})
}

func (j *Job) placement() (instance, remoteID string, attempts int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.instance, j.remoteID, j.attempts
}

// markCanceled flags client intent; the routing goroutine observes it
// between attempts (and through its context mid-attempt).
func (j *Job) markCanceled() {
	j.mu.Lock()
	j.canceled = true
	j.mu.Unlock()
}

func (j *Job) isCanceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.canceled
}

// View snapshots the job for JSON serving.
func (j *Job) View() JobView {
	instance, remoteID, attempts := j.placement()
	st := j.Status()
	return JobView{
		ID:          j.ID,
		State:       st.State,
		Fingerprint: fmt.Sprintf("%016x", j.FP),
		Instance:    instance,
		RemoteID:    remoteID,
		Attempts:    attempts,
		Coalesced:   st.Coalesced,
		Error:       st.Err,
		Result:      st.Result,
	}
}

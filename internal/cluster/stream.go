package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"regmutex/internal/service"
)

var errStreamStalled = errors.New("event stream stalled (no frames within the stall budget)")

// followEvents follows a placed job's SSE stream to its terminal state,
// forwarding sample/log events into the router job's own buffer (re-
// sequenced, so router-side watchers resume against stable IDs). A
// dropped or black-holed connection is resumed with Last-Event-ID up to
// StreamReconnects times — the instance replays exactly the missed
// frames; past that the instance is declared lost and the caller fails
// the placement over.
func (r *Router) followEvents(ctx context.Context, in *instance, remoteID string, j *Job) error {
	lastID := -1
	var lastErr error
	for attempt := 0; attempt <= r.cfg.StreamReconnects; attempt++ {
		if attempt > 0 {
			r.metrics.Counter("cluster.stream_resumes").Inc()
			if err := sleepCtx(ctx, 20*time.Millisecond<<uint(attempt-1)); err != nil {
				return err
			}
		}
		done, err := r.streamOnce(ctx, in, remoteID, j, &lastID)
		if done {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
	}
	return fmt.Errorf("instance %s: stream for %s lost after %d resumes: %w",
		in.name, remoteID, r.cfg.StreamReconnects, lastErr)
}

// streamOnce reads one SSE connection until a terminal state event
// (done=true), a connection error, or a stall. *lastID tracks the last
// frame consumed across connections for Last-Event-ID resume.
func (r *Router) streamOnce(ctx context.Context, in *instance, remoteID string, j *Job, lastID *int) (done bool, err error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, "GET",
		in.base+"/v1/jobs/"+remoteID+"/events", nil)
	if err != nil {
		return false, err
	}
	if *lastID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(*lastID))
	}

	// Stall watchdog: any frame — data, id, or ": ping" keepalive —
	// pushes the deadline out, and the context cancel unblocks the
	// reader when it trips. Armed before the request is sent: a
	// black-holed instance may accept the connection and never write
	// response headers, which stalls inside Do itself.
	var stalled atomic.Bool
	watchdog := time.AfterFunc(r.cfg.StreamStallTimeout, func() {
		stalled.Store(true)
		cancel()
	})
	defer watchdog.Stop()

	resp, err := r.client.hc.Do(req)
	if err != nil {
		if stalled.Load() {
			return false, fmt.Errorf("instance %s: %w", in.name, errStreamStalled)
		}
		return false, err
	}
	defer resp.Body.Close()
	watchdog.Reset(r.cfg.StreamStallTimeout)
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("instance %s: events for %s: HTTP %d", in.name, remoteID, resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	frameID := -1
	for sc.Scan() {
		watchdog.Reset(r.cfg.StreamStallTimeout)
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id:"):
			if n, err := strconv.Atoi(strings.TrimSpace(line[3:])); err == nil {
				frameID = n
			}
		case strings.HasPrefix(line, "data:"):
			var ev service.Event
			if json.Unmarshal([]byte(line[5:]), &ev) != nil {
				continue
			}
			if frameID >= 0 {
				*lastID = frameID
			}
			switch ev.Type {
			case "sample", "log":
				// Forward progress into the router job's buffer; the
				// publish re-sequences, so router watchers see their own
				// monotonic IDs regardless of failovers underneath.
				j.Publish(ev)
			case "state":
				if service.Terminal(ev.State) {
					return true, nil
				}
			}
		}
	}
	if stalled.Load() {
		return false, fmt.Errorf("instance %s: %w", in.name, errStreamStalled)
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	// EOF without a terminal event: the instance hung up mid-stream.
	return false, fmt.Errorf("instance %s: stream for %s ended without a terminal state", in.name, remoteID)
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"regmutex/internal/obs"
	"regmutex/internal/service"
)

// fakeClock is an injectable breaker clock tests advance by hand.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(3, 5*time.Second, clk.now)

	if got := b.snapshot(); got != BreakerClosed {
		t.Fatalf("initial state = %v", got)
	}
	// Two failures: still closed, still admitting.
	b.failure()
	b.failure()
	if !b.allow() || b.snapshot() != BreakerClosed {
		t.Fatalf("closed breaker under threshold must admit")
	}
	// A success resets the consecutive count.
	b.success()
	b.failure()
	b.failure()
	if b.snapshot() != BreakerClosed {
		t.Fatalf("success must reset the failure count (state %v)", b.snapshot())
	}
	// Third consecutive failure opens the circuit.
	b.failure()
	if b.snapshot() != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", b.snapshot())
	}
	if b.allow() {
		t.Fatal("open breaker inside cooldown must refuse")
	}
	// Cooldown elapses: exactly one half-open probe admitted.
	clk.advance(5 * time.Second)
	if !b.allow() {
		t.Fatal("breaker after cooldown must admit one probe")
	}
	if b.snapshot() != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", b.snapshot())
	}
	if b.allow() {
		t.Fatal("second caller during a half-open probe must be refused")
	}
	// Probe fails: re-open for a fresh cooldown.
	b.failure()
	if b.snapshot() != BreakerOpen || b.allow() {
		t.Fatalf("failed probe must re-open (state %v)", b.snapshot())
	}
	clk.advance(5 * time.Second)
	if !b.allow() {
		t.Fatal("second cooldown must admit another probe")
	}
	// Probe succeeds: closed, admitting freely again.
	b.success()
	if b.snapshot() != BreakerClosed || !b.allow() || !b.allow() {
		t.Fatalf("successful probe must close the breaker (state %v)", b.snapshot())
	}
}

func newTestInstance(name string) *instance {
	return &instance{name: name, base: "http://" + name,
		breaker: newBreaker(3, 5*time.Second, nil)}
}

// TestRendezvousAffinityStability: the consistent-hashing property —
// removing one instance remaps only the fingerprints that were on it.
func TestRendezvousAffinityStability(t *testing.T) {
	names := []string{"a:1", "b:1", "c:1"}
	full := []*instance{newTestInstance(names[0]), newTestInstance(names[1]), newTestInstance(names[2])}
	moved := 0
	for fp := uint64(0); fp < 200; fp++ {
		winner := pick(full, fp, Weights{})
		if winner == nil {
			t.Fatal("pick returned nil with healthy candidates")
		}
		if again := pick(full, fp, Weights{}); again != winner {
			t.Fatalf("fp %d: pick is not deterministic (%s vs %s)", fp, winner.name, again.name)
		}
		// Drop one non-winner: the placement must not move.
		var without []*instance
		for _, in := range full {
			if in != winner && len(without) < 2 {
				without = append(without, in)
			}
		}
		reduced := append([]*instance{winner}, without[:1]...)
		if got := pick(reduced, fp, Weights{}); got != winner {
			t.Fatalf("fp %d: removing a non-affinity instance moved the job %s -> %s",
				fp, winner.name, got.name)
		}
		// Drop the winner: the job lands on the next-ranked instance —
		// graceful degradation, not an error.
		if got := pick(without, fp, Weights{}); got == nil {
			t.Fatalf("fp %d: no fallback when the affinity target is gone", fp)
		}
		moved++
	}
	if moved != 200 {
		t.Fatalf("covered %d fingerprints", moved)
	}
}

// TestPickLoadBreaksAffinity: a saturated affinity target loses to an
// idle runner-up under the default weight blend.
func TestPickLoadBreaksAffinity(t *testing.T) {
	a, b, c := newTestInstance("a:1"), newTestInstance("b:1"), newTestInstance("c:1")
	all := []*instance{a, b, c}
	const fp = 7
	winner := pick(all, fp, Weights{})
	winner.mu.Lock()
	winner.queued = 1000
	winner.mu.Unlock()
	shifted := pick(all, fp, Weights{})
	if shifted == winner {
		t.Fatalf("1000 queued jobs on %s did not shift placement", winner.name)
	}
	winner.mu.Lock()
	winner.queued = 0
	winner.mu.Unlock()
	if got := pick(all, fp, Weights{}); got != winner {
		t.Fatalf("idle affinity target must win again (got %s, want %s)", got.name, winner.name)
	}
}

// newRecordingClient builds a client whose sleeps are captured, not slept.
func newRecordingClient(retry RetryPolicy, seed int64) (*client, *[]time.Duration) {
	delays := &[]time.Duration{}
	c := newClient(retry, time.Minute, seed, nil)
	c.sleep = func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
	return c, delays
}

func TestClientRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()
	c, delays := newRecordingClient(RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}, 1)
	var out map[string]bool
	if ae := c.do(context.Background(), "GET", ts.URL, nil, &out); ae != nil {
		t.Fatalf("do: %v", ae)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if len(*delays) != 2 {
		t.Fatalf("backoff sleeps = %d, want 2 (%v)", len(*delays), *delays)
	}
	// Full jitter: attempt n draws from [0, Base<<n], capped at MaxDelay.
	for i, d := range *delays {
		window := 10 * time.Millisecond << i
		if d < 0 || d > window {
			t.Fatalf("delay[%d] = %v outside full-jitter window [0, %v]", i, d, window)
		}
	}
	if !out["ok"] {
		t.Fatalf("decoded body = %v", out)
	}
}

func TestClientHonorsRetryAfterFloor(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"rate_limited","message":"slow down"}}`)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	c, delays := newRecordingClient(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}, 1)
	if ae := c.do(context.Background(), "GET", ts.URL, nil, nil); ae != nil {
		t.Fatalf("do: %v", ae)
	}
	if len(*delays) != 1 || (*delays)[0] < 3*time.Second {
		t.Fatalf("delays = %v, want one sleep >= server's Retry-After of 3s", *delays)
	}
}

func TestClientTerminalAndDrainingDoNotRetry(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		status     int
		check      func(*attemptError) bool
	}{
		{"terminal-4xx", `{"error":{"code":"bad_request","message":"no"}}`,
			http.StatusBadRequest, func(ae *attemptError) bool { return ae.terminal && !ae.draining }},
		{"draining-503", `{"error":{"code":"draining","message":"bye"}}`,
			http.StatusServiceUnavailable, func(ae *attemptError) bool { return ae.draining && !ae.terminal }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.WriteHeader(tc.status)
				fmt.Fprint(w, tc.body)
			}))
			defer ts.Close()
			c, delays := newRecordingClient(RetryPolicy{MaxAttempts: 4}, 1)
			ae := c.do(context.Background(), "GET", ts.URL, nil, nil)
			if ae == nil || !tc.check(ae) {
				t.Fatalf("classification wrong: %+v", ae)
			}
			if calls.Load() != 1 || len(*delays) != 0 {
				t.Fatalf("calls = %d sleeps = %d, want exactly one attempt and no backoff",
					calls.Load(), len(*delays))
			}
		})
	}
}

// TestClientJitterSeededReproducible: same seed, same jitter sequence —
// what makes chaos runs replayable.
func TestClientJitterSeededReproducible(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		c := newClient(RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second}, time.Minute, seed, nil)
		var out []time.Duration
		for i := 0; i < 8; i++ {
			out = append(out, c.backoff(i%4, 0))
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded jitter diverged at %d: %v vs %v", i, a, b)
		}
	}
	if c := draw(43); fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical jitter — not actually seeded")
	}
}

func TestRouterJournalTornTailAndReplaySet(t *testing.T) {
	path := t.TempDir() + "/router.jsonl"
	req := &service.SubmitRequest{Workload: "bfs", Policy: "static"}
	var buf bytes.Buffer
	for _, rec := range []service.JournalRecord{
		{Op: "accept", ID: "r000001", FP: "01", Req: req},
		{Op: "accept", ID: "r000002", FP: "02", Req: req},
		{Op: "assign", ID: "r000001", Instance: "a:1", RemoteID: "j000001"},
		{Op: "finish", ID: "r000001", End: service.StateDone},
	} {
		line, _ := json.Marshal(rec)
		buf.Write(append(line, '\n'))
	}
	buf.WriteString(`{"op":"accept","id":"r0000`) // torn final append
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	logger, err := obs.NewLogger(&logs, obs.LogJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Instances: []string{"http://127.0.0.1:1"}, JournalPath: path, Logger: logger})
	if err != nil {
		t.Fatalf("New on torn tail: %v", err)
	}
	defer r.Close()
	if !strings.Contains(logs.String(), "torn final record") {
		t.Fatalf("no structured torn-record warning:\n%s", logs.String())
	}
	if len(r.replays) != 1 || r.replays[0].ID != "r000002" {
		t.Fatalf("replays = %+v, want exactly the unfinished r000002", r.replays)
	}
}

func TestRouterJournalMidFileCorruptionRefuses(t *testing.T) {
	path := t.TempDir() + "/router.jsonl"
	content := "{\"op\":\"accept\",\"id\":\"r000001\"}\nGARBAGE\n{\"op\":\"finish\",\"id\":\"r000001\"}\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Instances: []string{"http://127.0.0.1:1"}, JournalPath: path})
	if err == nil || !strings.Contains(err.Error(), "corrupt record at line 2") {
		t.Fatalf("New = %v, want corrupt-record error naming line 2", err)
	}
}

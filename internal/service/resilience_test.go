package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"regmutex/internal/jsonl"
	"regmutex/internal/obs"
)

// TestJournalTornTailReplay: a crash mid-append leaves a partial final
// JSONL record. Replay must skip it with a structured warning — not fail
// New, not lose the intact records before it.
func TestJournalTornTailReplay(t *testing.T) {
	path := t.TempDir() + "/journal.jsonl"
	s1, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	j, body := s1.Submit(SubmitRequest{Workload: "bfs", Policy: "static", Scale: 8, SMs: 2})
	if body != nil {
		t.Fatalf("submit: %v", body)
	}
	s1.Close()

	// Simulate the torn write: append half a record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"accept","id":"j9999`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var logs bytes.Buffer
	logger, err := obs.NewLogger(&logs, obs.LogJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Workers: 2, PoolWorkers: 4, JournalPath: path, Logger: logger})
	if err != nil {
		t.Fatalf("New failed on torn journal tail: %v", err)
	}
	t.Cleanup(s2.Close)
	if got := s2.QueueLen(); got != 1 {
		t.Fatalf("replayed queue length = %d, want 1 (the intact record)", got)
	}
	if !strings.Contains(logs.String(), "torn final record") {
		t.Fatalf("no structured torn-record warning logged:\n%s", logs.String())
	}
	s2.Start()
	if v := waitDone(t, s2, j.ID, 2*time.Minute); v.State != StateDone {
		t.Fatalf("replayed job state = %q (%+v)", v.State, v.Error)
	}
}

// TestJournalCrashRestartAppendRestart: the restart after a torn tail
// must append on a fresh line. Were the torn fragment kept, the first
// new record would be glued onto it, and the restart after that would
// refuse the journal as mid-file corruption.
func TestJournalCrashRestartAppendRestart(t *testing.T) {
	path := t.TempDir() + "/journal.jsonl"
	s1, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	a, body := s1.Submit(SubmitRequest{Workload: "bfs", Policy: "static", Scale: 8, SMs: 2})
	if body != nil {
		t.Fatalf("submit: %v", body)
	}
	s1.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"accept","id":"j9999`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatalf("restart over torn tail: %v", err)
	}
	s2.Start()
	if v := waitDone(t, s2, a.ID, 2*time.Minute); v.State != StateDone {
		t.Fatalf("replayed job state = %q (%+v)", v.State, v.Error)
	}
	b, body := s2.Submit(SubmitRequest{Workload: "bfs", Policy: "static", Scale: 16, SMs: 1})
	if body != nil {
		t.Fatalf("submit after restart: %v", body)
	}
	if v := waitDone(t, s2, b.ID, 2*time.Minute); v.State != StateDone {
		t.Fatalf("new job state = %q (%+v)", v.State, v.Error)
	}
	s2.Close()

	s3, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	defer s3.Close()
	if got := s3.QueueLen(); got != 0 {
		t.Fatalf("second restart replayed %d jobs, want 0 (both finished)", got)
	}
}

// TestJournalIDsNotReusedAfterRestart: IDs are never reused across
// restarts. A job that finished before a restart keeps its ID in the
// journal (accept + finish), so a restart with nothing pending must
// still mint past it; reusing it would let the old finish record
// swallow the new job when a crash forces the next replay.
func TestJournalIDsNotReusedAfterRestart(t *testing.T) {
	path := t.TempDir() + "/journal.jsonl"
	req := SubmitRequest{Workload: "bfs", Policy: "static", Scale: 8, SMs: 2}
	s1, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	a, body := s1.Submit(req)
	if body != nil {
		t.Fatalf("submit: %v", body)
	}
	if v := waitDone(t, s1, a.ID, 2*time.Minute); v.State != StateDone {
		t.Fatalf("first job state = %q (%+v)", v.State, v.Error)
	}
	s1.Close()

	s2, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	b, body := s2.Submit(req)
	if body != nil {
		t.Fatalf("submit after restart: %v", body)
	}
	s2.Close() // crash before the executors ever run it

	if a.ID != "j000001" || b.ID != "j000002" {
		t.Fatalf("IDs across a restart = %s, %s; want j000001, j000002", a.ID, b.ID)
	}
	s3, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.QueueLen(); got != 1 {
		t.Fatalf("replayed queue length = %d, want 1 (the accepted, unfinished %s)", got, b.ID)
	}
	if s3.Job(b.ID) == nil {
		t.Fatalf("replay lost job %s", b.ID)
	}
}

// TestPendingJobsFold: the replay fold keeps accepted-but-unfinished
// records in acceptance order, ignores router assign records, and
// reports the highest journaled job number — finished jobs included.
func TestPendingJobsFold(t *testing.T) {
	req := &SubmitRequest{Workload: "bfs", Policy: "static"}
	pending, last := pendingJobs([]JournalRecord{
		{Op: "accept", ID: "r000001", FP: "01", Req: req},
		{Op: "accept", ID: "r000003", FP: "02", Req: req},
		{Op: "accept", ID: "r000002", FP: "03", Req: req},
		{Op: "assign", ID: "r000001", Instance: "a:1", RemoteID: "j000001"},
		{Op: "finish", ID: "r000003", End: StateDone},
		{Op: "accept", ID: "r000004"}, // no request: not replayable
	}, "r")
	var ids []string
	for _, rec := range pending {
		ids = append(ids, rec.ID)
	}
	if strings.Join(ids, ",") != "r000001,r000002" || last != 4 {
		t.Fatalf("pending %v, last %d; want [r000001 r000002], 4", ids, last)
	}
	if _, last := pendingJobs([]JournalRecord{{Op: "accept", ID: "r000009", Req: req}}, "j"); last != 0 {
		t.Fatalf("last = %d for IDs under another prefix, want 0", last)
	}
}

// TestOversizedSubmitKeepsJournalReplayable: a request whose accept
// record would exceed the JSONL line cap is refused with too_large
// instead of being journaled, so the daemon can still restart.
func TestOversizedSubmitKeepsJournalReplayable(t *testing.T) {
	path := t.TempDir() + "/journal.jsonl"
	s1, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	huge := SubmitRequest{Workload: "bfs", Policy: "static", Client: strings.Repeat("a", jsonl.MaxLine)}
	if _, body := s1.Submit(huge); body == nil || body.Code != CodeTooLarge {
		t.Fatalf("Submit(oversized) = %+v, want %s", body, CodeTooLarge)
	}
	if _, body := s1.Submit(SubmitRequest{Workload: "bfs", Policy: "static"}); body != nil {
		t.Fatalf("submit after refusal: %v", body)
	}
	s1.Close()
	s2, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatalf("restart after oversized submit: %v", err)
	}
	defer s2.Close()
	if got := s2.QueueLen(); got != 1 {
		t.Fatalf("replayed queue length = %d, want 1 (the admitted job)", got)
	}
}

// TestJournalMidFileCorruptionFails: an unparseable record that is NOT
// the final line is corruption, not a crash artifact — silently dropping
// it could lose an accepted job, so New must refuse.
func TestJournalMidFileCorruptionFails(t *testing.T) {
	path := t.TempDir() + "/journal.jsonl"
	content := `{"op":"accept","id":"j000001","req":{"workload":"bfs"}}
GARBAGE NOT JSON
{"op":"finish","id":"j000001","state":"done"}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Workers: 1, JournalPath: path})
	if err == nil || !strings.Contains(err.Error(), "corrupt record at line 2") {
		t.Fatalf("New = %v, want corrupt-record error naming line 2", err)
	}
}

// TestJournalNoSync: with JournalNoSync the journal still records and
// replays (durability against power loss is relaxed, not correctness).
func TestJournalNoSync(t *testing.T) {
	path := t.TempDir() + "/journal.jsonl"
	s1, err := New(Config{Workers: 1, JournalPath: path, JournalNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, body := s1.Submit(SubmitRequest{Workload: "bfs", Policy: "static"}); body != nil {
		t.Fatalf("submit: %v", body)
	}
	s1.Close()
	s2 := newTestService(t, Config{Workers: 1, JournalPath: path, JournalNoSync: true})
	if got := s2.QueueLen(); got != 1 {
		t.Fatalf("replayed queue length = %d, want 1", got)
	}
}

// readSSE drains one SSE response into (id, event-json) pairs until the
// stream ends or maxEvents arrive.
func readSSE(t *testing.T, resp *http.Response, maxEvents int) (ids []int, events []Event) {
	t.Helper()
	sc := bufio.NewScanner(resp.Body)
	id := -1
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id:"):
			n, err := strconv.Atoi(strings.TrimSpace(line[3:]))
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			id = n
		case strings.HasPrefix(line, "data:"):
			var ev Event
			if err := json.Unmarshal([]byte(line[5:]), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
			ids = append(ids, id)
			events = append(events, ev)
			if len(events) >= maxEvents {
				return ids, events
			}
		}
	}
	return ids, events
}

// TestSSEResumeWithLastEventID: every frame carries a monotonically
// increasing id:, and a reconnect with Last-Event-ID picks up exactly
// after the last delivered frame — no missed or repeated state
// transitions across the reconnect.
func TestSSEResumeWithLastEventID(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, PoolWorkers: 4})
	ts := httptest.NewServer(Handler(s, WithSSEKeepalive(50*time.Millisecond)))
	defer ts.Close()

	// No Start() yet: the first connection sees only the queued event.
	_, view := postJob(t, ts, `{"workload":"bfs","policy":"static","scale":8,"sms":2}`, "")
	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	ids, events := readSSE(t, resp, 1)
	resp.Body.Close() // client drops mid-stream
	if len(events) != 1 || events[0].State != StateQueued || ids[0] != 0 {
		t.Fatalf("first connection saw ids=%v events=%+v, want the queued event with id 0", ids, events)
	}

	// Let the job run to completion, then reconnect with Last-Event-ID.
	s.Start()
	if v := waitDone(t, s, view.ID, time.Minute); v.State != StateDone {
		t.Fatalf("job state %q (%+v)", v.State, v.Error)
	}
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+view.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.Itoa(ids[0]))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ids2, events2 := readSSE(t, resp, 1000)

	// Resume starts exactly one past the last-seen frame and stays
	// strictly monotonic through the terminal state.
	if len(ids2) == 0 || ids2[0] != ids[0]+1 {
		t.Fatalf("resume started at ids %v, want first id %d", ids2, ids[0]+1)
	}
	for i := 1; i < len(ids2); i++ {
		if ids2[i] != ids2[i-1]+1 {
			t.Fatalf("ids not monotonic across resume: %v", ids2)
		}
	}
	var states []string
	for _, ev := range events2 {
		if ev.Type == "state" {
			states = append(states, ev.State)
		}
	}
	// The queued event was already delivered before the disconnect; the
	// resumed stream must carry the remaining transitions exactly once.
	want := []string{StateRunning, StateDone}
	if len(states) != len(want) || states[0] != want[0] || states[1] != want[1] {
		t.Fatalf("resumed state transitions = %v, want %v", states, want)
	}
}

// TestReadyzLoadHints: /readyz carries the router's scoring inputs and a
// Retry-After when draining.
func TestReadyzLoadHints(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	// Two queued jobs (no Start) show up in the queued hint.
	for i := 0; i < 2; i++ {
		if _, view := postJob(t, ts, `{"workload":"bfs","policy":"static"}`, ""); view.ID == "" {
			t.Fatal("submit failed")
		}
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Status  string `json:"status"`
		Queued  int    `json:"queued"`
		Running int    `json:"running"`
		MemoLen int    `json:"memo_len"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != 200 || body.Status != "ok" || body.Queued != 2 {
		t.Fatalf("readyz = %d %+v, want 200 ok with queued=2", resp.StatusCode, body)
	}

	s.draining.Store(true)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining readyz = %d Retry-After=%q, want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestFingerprintIdentity: the fingerprint resolves defaults (so a
// request spelled explicitly equals its defaulted twin), ignores
// attribution fields, and separates anything that changes the result.
func TestFingerprintIdentity(t *testing.T) {
	seed := uint64(42)
	base := SubmitRequest{Workload: "bfs", Policy: "static", Scale: 8, SMs: 2}
	explicit := SubmitRequest{Kind: "run", Workload: "bfs", Policies: []string{"static"},
		Scale: 8, SMs: 2, Seed: &seed}
	if base.Fingerprint() != explicit.Fingerprint() {
		t.Error("defaulted and explicit requests should share a fingerprint")
	}
	attributed := base
	attributed.Client, attributed.Priority = "someone-else", 7
	if base.Fingerprint() != attributed.Fingerprint() {
		t.Error("client/priority must not affect the fingerprint")
	}
	for name, mutate := range map[string]func(*SubmitRequest){
		"workload":   func(r *SubmitRequest) { r.Workload = "sad" },
		"policy":     func(r *SubmitRequest) { r.Policy = "regmutex" },
		"scale":      func(r *SubmitRequest) { r.Scale = 4 },
		"sms":        func(r *SubmitRequest) { r.SMs = 4 },
		"seed":       func(r *SubmitRequest) { v := uint64(7); r.Seed = &v },
		"half":       func(r *SubmitRequest) { r.Half = true },
		"max_cycles": func(r *SubmitRequest) { r.MaxCycles = 99 },
	} {
		r := base
		mutate(&r)
		if r.Fingerprint() == base.Fingerprint() {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}
	exp := SubmitRequest{Experiment: "storage"}
	if exp.Fingerprint() == base.Fingerprint() {
		t.Error("experiment and run requests collide")
	}

	// The fingerprint hashes the resolved plan: requests that run the
	// same simulation and print the same report share one, and requests
	// whose reports differ (row order decides where the delta against
	// static is printed) do not.
	for _, tc := range []struct {
		name string
		a, b SubmitRequest
		same bool
	}{
		{"policy order", SubmitRequest{Workload: "bfs", Policies: []string{"regmutex", "static"}},
			SubmitRequest{Workload: "bfs", Policies: []string{"static", "regmutex"}}, false},
		{"scale 0 vs 1", SubmitRequest{Workload: "bfs"}, SubmitRequest{Workload: "bfs", Scale: 1}, true},
		{"experiment quick vs scale 4 sms 4", SubmitRequest{Experiment: "fig7", Quick: true},
			SubmitRequest{Experiment: "fig7", Scale: 4, SMs: 4}, true},
		{"experiment ignores half", SubmitRequest{Experiment: "fig7"},
			SubmitRequest{Experiment: "fig7", Half: true}, true},
		{"experiment ignores max_cycles", SubmitRequest{Experiment: "fig7"},
			SubmitRequest{Experiment: "fig7", MaxCycles: 99}, true},
	} {
		if got := tc.a.Fingerprint() == tc.b.Fingerprint(); got != tc.same {
			t.Errorf("%s: fingerprints equal = %v, want %v", tc.name, got, tc.same)
		}
	}
}

package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

type stubJob struct{ id, state string }

func (j *stubJob) State() string { return j.state }

// TestJobTableKeepsNewestTerminal finishes KeepTerminalJobs+k jobs behind
// a queued and a running one: the table keeps exactly the newest
// KeepTerminalJobs terminal jobs, forgets the k oldest, never drops the
// non-terminal two, and ignores a finish for an ID it does not hold.
func TestJobTableKeepsNewestTerminal(t *testing.T) {
	const k = 7
	tab := NewJobTable[*stubJob]("j")
	mint := func(state string) *stubJob {
		return tab.Mint(func(id string, _ int64) *stubJob { return &stubJob{id: id, state: state} })
	}
	queued, running := mint(StateQueued), mint(StateRunning)
	var done []*stubJob
	for i := 0; i < KeepTerminalJobs+k; i++ {
		j := mint(StateDone)
		tab.Finished(j.id)
		done = append(done, j)
	}
	tab.Finished("j999999")
	for i, j := range done {
		if _, ok := tab.Get(j.id); ok != (i >= k) {
			t.Errorf("job %d of %d (%s): kept = %v, want %v", i, len(done), j.id, ok, i >= k)
		}
	}
	for _, j := range []*stubJob{queued, running} {
		if _, ok := tab.Get(j.id); !ok {
			t.Errorf("%s job %s evicted", j.state, j.id)
		}
	}
	terminal := 0
	for _, j := range tab.All() {
		if Terminal(j.State()) {
			terminal++
		}
	}
	if terminal != KeepTerminalJobs || tab.Unfinished() != 2 {
		t.Errorf("table holds %d terminal and %d unfinished jobs, want %d and 2", terminal, tab.Unfinished(), KeepTerminalJobs)
	}
}

// TestJobTableConcurrentFinish mints and finishes jobs from several
// goroutines while another scans the table, as gpusimd's executors and
// its probes do; run it under -race.
func TestJobTableConcurrentFinish(t *testing.T) {
	const writers, each = 4, KeepTerminalJobs
	tab := NewJobTable[*stubJob]("j")
	stop := make(chan struct{})
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		for {
			select {
			case <-stop:
				return
			default:
				tab.Unfinished()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j := tab.Mint(func(id string, _ int64) *stubJob { return &stubJob{id: id, state: StateDone} })
				tab.Finished(j.id)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-scanned
	if n := len(tab.All()); n != KeepTerminalJobs {
		t.Errorf("table holds %d jobs after %d finished, want %d", n, writers*each, KeepTerminalJobs)
	}
}

// TestServiceForgetsOldTerminalJobs serves KeepTerminalJobs+k jobs through
// gpusimd's HTTP surface while a long job runs: a GET of the oldest
// finished job answers exactly like a GET of an ID never minted, and the
// running job is still served.
func TestServiceForgetsOldTerminalJobs(t *testing.T) {
	const k = 3
	s := newTestService(t, Config{Workers: 2, PoolWorkers: 2})
	s.Start()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	spinBody, _ := json.Marshal(SubmitRequest{Kasm: spinKasm, Policy: "static"})
	_, spin := postJob(t, ts, string(spinBody), "")
	waitFor(t, 10*time.Second, func() bool { return s.Job(spin.ID).State() == StateRunning })

	var first string
	for i := 0; i < KeepTerminalJobs+k; i++ {
		resp, view := postJob(t, ts, `{"workload":"bfs","policy":"static","scale":16,"sms":1}`, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: status %d", i, resp.StatusCode)
		}
		if final := waitDone(t, s, view.ID, time.Minute); final.State != StateDone {
			t.Fatalf("job %d: state %s", i, final.State)
		}
		if i == 0 {
			first = view.ID
		}
	}

	get := func(id string) (int, string) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	gotCode, gotBody := get(first)
	wantCode, wantBody := get("j999999")
	if gotCode != wantCode || gotBody != wantBody {
		t.Errorf("GET oldest %s = %d %q, want the unknown-ID answer %d %q", first, gotCode, gotBody, wantCode, wantBody)
	}
	if code, body := get(spin.ID); code != http.StatusOK {
		t.Errorf("GET running %s = %d %s", spin.ID, code, body)
	}
	if n := len(s.Jobs()); n != KeepTerminalJobs+1 {
		t.Errorf("service tracks %d jobs, want %d terminal plus the running one", n, KeepTerminalJobs)
	}
	if _, ok := s.Cancel(spin.ID); !ok {
		t.Fatalf("cancel %s: unknown", spin.ID)
	}
	waitDone(t, s, spin.ID, time.Minute)
}

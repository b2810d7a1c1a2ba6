// Command gpusimd serves the GPU simulator over HTTP: clients POST jobs
// (a workload or kasm kernel under one or more register-allocation
// policies, or a named paperbench experiment), poll or stream their
// progress, and fetch reports that are byte-identical to the gpusim CLI.
//
// Quickstart:
//
//	gpusimd -addr :8080 &
//	curl -s localhost:8080/v1/jobs -d '{"workload":"bfs","policy":"all","quick":true}'
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -N localhost:8080/v1/jobs/j000001/events     # SSE stream
//	curl -s localhost:8080/metrics
//
// Identical concurrent submissions are deduplicated through the
// simulator pool's single-flight memo cache; the queue is bounded (429
// queue_full past the limit) and per-client rate limited. SIGTERM and
// SIGINT drain gracefully: new submissions get 503, accepted jobs run to
// completion, then the process exits. With -journal, jobs interrupted by
// a crash or hard kill are re-queued on the next start.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"syscall"
	"time"

	"regmutex/internal/obs"
	"regmutex/internal/service"
	"regmutex/internal/workspec"
)

// options carries the daemon's fully-parsed configuration: the service
// tuning plus the telemetry surface (structured logger, pprof toggle).
type options struct {
	cfg    service.Config
	logger *slog.Logger
	pprof  bool
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.Int("workers", 2, "concurrent job executors")
	poolWorkers := flag.Int("pool", 0, "simulation pool workers (0 = all cores)")
	par := flag.Int("par", 0, "SM-stepping workers inside each simulation (0 = GOMAXPROCS, 1 = serial; results identical at any value)")
	queueDepth := flag.Int("queue", 64, "max queued jobs before 429 queue_full")
	memoLimit := flag.Int("memo", 256, "memo cache entries before LRU eviction (0 = unbounded)")
	rate := flag.Float64("rate", 0, "per-client submissions per second (0 = unlimited)")
	burst := flag.Int("burst", 8, "per-client burst allowance")
	journal := flag.String("journal", "", "job journal path for crash recovery (empty = off)")
	record := flag.String("record", "", "append every accepted submission (with arrival timestamps) to this JSONL trace for later replay (empty = off)")
	journalFsync := flag.Bool("journal-fsync", true, "fsync the journal after every append (disable on router-fronted fleet members; the router's journal covers instance loss)")
	drainWait := flag.Duration("drain", 60*time.Second, "max graceful drain time on SIGTERM")
	logFormat := flag.String("log-format", obs.LogText, "structured log format: text|json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof profiling endpoints")
	selftest := flag.Bool("selftest", false, "start on a loopback port, run a smoke job end-to-end, drain, exit")
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpusimd: %v\n", err)
		os.Exit(2)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpusimd: %v\n", err)
		os.Exit(2)
	}
	logger = logger.With("component", "gpusimd")

	var recorder *workspec.TraceWriter
	if *record != "" {
		recorder, err = workspec.CreateTrace(*record)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpusimd: -record: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			if err := recorder.Close(); err != nil {
				logger.Error("trace recorder", "err", err)
			}
		}()
		logger.Info("recording accepted submissions", "path", *record)
	}

	o := options{
		cfg: service.Config{
			Workers:       *workers,
			PoolWorkers:   *poolWorkers,
			Par:           *par,
			QueueDepth:    *queueDepth,
			MemoLimit:     *memoLimit,
			RatePerSec:    *rate,
			Burst:         *burst,
			JournalPath:   *journal,
			JournalNoSync: !*journalFsync,
			Logger:        logger,
		},
		logger: logger,
		pprof:  *pprofOn,
	}
	if recorder != nil {
		o.cfg.OnAccept = recorder.Record
	}
	if *selftest {
		if err := runSelftest(o, *drainWait); err != nil {
			fmt.Fprintf(os.Stderr, "gpusimd: selftest: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("gpusimd: selftest ok")
		return
	}
	if err := serve(o, *addr, *drainWait, nil); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

// serve runs the daemon until SIGTERM/SIGINT, then drains. When ready is
// non-nil, the bound listener address is sent on it once accepting.
func serve(o options, addr string, drainWait time.Duration, ready chan<- string) error {
	svc, err := service.New(o.cfg)
	if err != nil {
		return err
	}
	svc.Start()
	h := service.Handler(svc, service.WithAccessLog(o.logger), service.WithPprof(o.pprof))
	return service.Serve(o.logger, addr, h, svc, drainWait, ready,
		"workers", o.cfg.Workers,
		"queue", o.cfg.QueueDepth,
		"memo", o.cfg.MemoLimit,
		"pprof", o.pprof)
}

// runSelftest boots the daemon on a loopback port, drives one job
// end-to-end over real HTTP (submit, SSE stream, status), then delivers
// SIGTERM to itself and verifies the drain completes cleanly. It is the
// `make serve-smoke` payload. Its stdout lines are stable — structured
// diagnostics go to stderr via the configured logger.
func runSelftest(o options, drainWait time.Duration) error {
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- serve(o, "127.0.0.1:0", drainWait, ready) }()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		return fmt.Errorf("server exited before ready: %v", err)
	}

	// Submit a quick run job.
	body := `{"workload":"bfs","policy":"all","scale":8,"sms":2,"client":"selftest"}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	var view service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	fmt.Printf("gpusimd: selftest submitted %s\n", view.ID)

	// Stream its events until the terminal state arrives.
	resp, err = http.Get(base + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		return err
	}
	events := 0
	sc := bufio.NewScanner(resp.Body)
	last := ""
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data:") {
			events++
			var ev service.Event
			if err := json.Unmarshal([]byte(line[5:]), &ev); err != nil {
				return fmt.Errorf("bad SSE payload %q: %v", line, err)
			}
			if ev.Type == "state" {
				last = ev.State
			}
		}
	}
	resp.Body.Close()
	if last != "done" {
		return fmt.Errorf("job ended %q after %d events, want done", last, events)
	}
	fmt.Printf("gpusimd: selftest streamed %d events, job done\n", events)

	// Fetch the result and sanity-check the report.
	resp, err = http.Get(base + "/v1/jobs/" + view.ID)
	if err != nil {
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return err
	}
	resp.Body.Close()
	if view.Result == nil || view.Result.Report == "" {
		return fmt.Errorf("job %s has no report", view.ID)
	}
	if view.Result.FailedRows != 0 {
		return fmt.Errorf("job %s: %d failed rows:\n%s", view.ID, view.Result.FailedRows, view.Result.Report)
	}

	// Telemetry surface: responses carry request IDs (inbound honored)
	// and the Prometheus exposition includes the route histograms.
	req, _ := http.NewRequest("GET", base+"/metrics?format=prometheus", nil)
	req.Header.Set("X-Request-Id", "selftest-rid-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	promText := new(strings.Builder)
	sc = bufio.NewScanner(resp.Body)
	for sc.Scan() {
		promText.WriteString(sc.Text() + "\n")
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "selftest-rid-1" {
		return fmt.Errorf("X-Request-Id = %q, want the inbound value echoed", got)
	}
	for _, want := range []string{"# TYPE http_latency_metrics histogram", "service_jobs_accepted", "job_e2e_seconds_bucket"} {
		if !strings.Contains(promText.String(), want) {
			return fmt.Errorf("prometheus exposition missing %q", want)
		}
	}
	fmt.Println("gpusimd: selftest telemetry ok")

	// Graceful drain via a real signal.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-done:
		return err
	case <-time.After(drainWait + 10*time.Second):
		return fmt.Errorf("drain did not finish in time")
	}
}

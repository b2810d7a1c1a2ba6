// Command gpusimrouter fronts a fleet of gpusimd instances with one
// resilient HTTP endpoint. It serves the same /v1/jobs API a single
// instance does, adding health-checked routing with memo-affinity
// placement, per-instance circuit breakers, retries with exponential
// backoff + full jitter, failover when an instance dies mid-job, and a
// router-side journal that replays accepted-but-unfinished jobs across
// router restarts.
//
// Quickstart (three instances, one router):
//
//	gpusimd -addr 127.0.0.1:8081 &
//	gpusimd -addr 127.0.0.1:8082 &
//	gpusimd -addr 127.0.0.1:8083 &
//	gpusimrouter -addr :8080 -instances http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
//	curl -s localhost:8080/v1/jobs -d '{"workload":"bfs","policy":"all","quick":true}'
//	curl -s localhost:8080/v1/instances        # fleet health + breakers
//	curl -s localhost:8080/metrics             # retries/failovers/breaker state
//
// SIGTERM drains: new submissions get 503 + Retry-After, accepted jobs
// finish (failing over if their instance dies), then the process exits.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"time"

	"regmutex/internal/cluster"
	"regmutex/internal/obs"
	"regmutex/internal/service"
)

type options struct {
	cfg    cluster.Config
	logger *slog.Logger
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	instances := flag.String("instances", "", "comma-separated gpusimd base URLs (required)")
	probeInterval := flag.Duration("probe-interval", time.Second, "interval between /readyz health probes")
	ejectAfter := flag.Int("eject-after", 3, "consecutive probe failures that eject an instance")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive request failures that open an instance's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker cooldown before a half-open probe")
	retries := flag.Int("retries", 3, "max attempts per instance per request (backoff with full jitter between)")
	retryBase := flag.Duration("retry-base", 25*time.Millisecond, "base backoff delay")
	retryMax := flag.Duration("retry-max", time.Second, "max backoff delay")
	requestTimeout := flag.Duration("request-timeout", 2*time.Minute, "per-HTTP-attempt deadline")
	stallTimeout := flag.Duration("stall-timeout", 60*time.Second, "declare an event stream black-holed after this long without a frame")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "total routing budget per job across all failovers")
	journal := flag.String("journal", "", "router journal path for failover replay across restarts (empty = off)")
	journalFsync := flag.Bool("journal-fsync", true, "fsync the router journal after every append")
	seed := flag.Int64("seed", 0, "retry-jitter seed (0 = default; fix for reproducible behavior)")
	drainWait := flag.Duration("drain", 120*time.Second, "max graceful drain time on SIGTERM")
	logFormat := flag.String("log-format", obs.LogText, "structured log format: text|json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	selftest := flag.Bool("selftest", false, "boot an in-process 3-instance fleet, drive jobs through chaos (one instance killed mid-run), drain, exit")
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpusimrouter: %v\n", err)
		os.Exit(2)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpusimrouter: %v\n", err)
		os.Exit(2)
	}
	logger = logger.With("component", "gpusimrouter")

	o := options{
		cfg: cluster.Config{
			ProbeInterval:    *probeInterval,
			EjectAfter:       *ejectAfter,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
			Retry: cluster.RetryPolicy{
				MaxAttempts: *retries,
				BaseDelay:   *retryBase,
				MaxDelay:    *retryMax,
			},
			RequestTimeout:     *requestTimeout,
			StreamStallTimeout: *stallTimeout,
			JobTimeout:         *jobTimeout,
			JournalPath:        *journal,
			JournalNoSync:      !*journalFsync,
			Seed:               *seed,
			Logger:             logger,
		},
		logger: logger,
	}
	if *selftest {
		if err := runSelftest(o, *drainWait); err != nil {
			fmt.Fprintf(os.Stderr, "gpusimrouter: selftest: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("gpusimrouter: selftest ok")
		return
	}
	for _, u := range strings.Split(*instances, ",") {
		if u = strings.TrimSpace(u); u != "" {
			o.cfg.Instances = append(o.cfg.Instances, u)
		}
	}
	if len(o.cfg.Instances) == 0 {
		fmt.Fprintln(os.Stderr, "gpusimrouter: -instances is required (comma-separated gpusimd URLs)")
		os.Exit(2)
	}
	if err := serve(o, *addr, *drainWait, nil); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

// serve runs the router until SIGTERM/SIGINT, then drains. When ready is
// non-nil, the bound listener address is sent on it once accepting.
func serve(o options, addr string, drainWait time.Duration, ready chan<- string) error {
	r, err := cluster.New(o.cfg)
	if err != nil {
		return err
	}
	r.Start()
	h := cluster.Handler(r, service.WithAccessLog(o.logger))
	return service.Serve(o.logger, addr, h, r, drainWait, ready,
		"instances", len(o.cfg.Instances))
}

// fleetInstance is one in-process gpusimd the selftest boots.
type fleetInstance struct {
	name   string
	svc    *service.Service
	server *http.Server
	ln     net.Listener
}

func (fi *fleetInstance) url() string { return "http://" + fi.ln.Addr().String() }

func (fi *fleetInstance) kill() {
	fi.server.Close()
	fi.svc.Close()
}

func bootInstance(name string, logger *slog.Logger) (*fleetInstance, error) {
	svc, err := service.New(service.Config{Workers: 2, Logger: logger.With("instance", name)})
	if err != nil {
		return nil, err
	}
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	fi := &fleetInstance{name: name, svc: svc, ln: ln,
		server: &http.Server{Handler: service.Handler(svc)}}
	go fi.server.Serve(ln)
	return fi, nil
}

// runSelftest boots a real 3-instance fleet plus the router on loopback
// ports, drives jobs through the router over HTTP — including a
// duplicate that must coalesce and a job whose instance is killed
// mid-run — then SIGTERMs itself and verifies the drain. It is the
// `make fleet-smoke` payload.
func runSelftest(o options, drainWait time.Duration) error {
	var fleet []*fleetInstance
	for i := 0; i < 3; i++ {
		fi, err := bootInstance(fmt.Sprintf("inst%d", i), o.logger)
		if err != nil {
			return err
		}
		defer fi.kill()
		fleet = append(fleet, fi)
		o.cfg.Instances = append(o.cfg.Instances, fi.url())
	}
	// Selftest time constants: converge in seconds, deterministically.
	o.cfg.ProbeInterval = 100 * time.Millisecond
	o.cfg.BreakerCooldown = 500 * time.Millisecond
	o.cfg.StreamStallTimeout = 5 * time.Second
	o.cfg.Seed = 1

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- serve(o, "127.0.0.1:0", drainWait, ready) }()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		return fmt.Errorf("router exited before ready: %v", err)
	}

	submit := func(body string) (cluster.JobView, error) {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			return cluster.JobView{}, err
		}
		defer resp.Body.Close()
		var view cluster.JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			return view, err
		}
		if resp.StatusCode != http.StatusAccepted {
			return view, fmt.Errorf("submit: status %d (%+v)", resp.StatusCode, view.Error)
		}
		return view, nil
	}
	wait := func(id string) (cluster.JobView, error) {
		deadline := time.Now().Add(2 * time.Minute)
		for time.Now().Before(deadline) {
			resp, err := http.Get(base + "/v1/jobs/" + id)
			if err != nil {
				return cluster.JobView{}, err
			}
			var view cluster.JobView
			err = json.NewDecoder(resp.Body).Decode(&view)
			resp.Body.Close()
			if err != nil {
				return view, err
			}
			switch view.State {
			case service.StateDone:
				return view, nil
			case service.StateFailed, service.StateCanceled:
				return view, fmt.Errorf("job %s ended %s: %+v", id, view.State, view.Error)
			}
			time.Sleep(50 * time.Millisecond)
		}
		return cluster.JobView{}, fmt.Errorf("job %s did not finish", id)
	}

	// Phase 1: a job and its duplicate — the duplicate must coalesce.
	v1, err := submit(`{"workload":"bfs","policy":"static","scale":8,"sms":2}`)
	if err != nil {
		return err
	}
	v2, err := submit(`{"workload":"bfs","policy":"static","scale":8,"sms":2}`)
	if err != nil {
		return err
	}
	f1, err := wait(v1.ID)
	if err != nil {
		return err
	}
	f2, err := wait(v2.ID)
	if err != nil {
		return err
	}
	if !f2.Coalesced {
		return fmt.Errorf("duplicate submission %s was not coalesced", v2.ID)
	}
	if f1.Result.Report != f2.Result.Report {
		return fmt.Errorf("coalesced reports diverge")
	}
	fmt.Printf("gpusimrouter: selftest routed %s to %s, coalesced duplicate %s\n", f1.ID, f1.Instance, f2.ID)

	// Phase 2: kill the instance that served phase 1, then run the same
	// job again — the router must fail over and still answer.
	for _, fi := range fleet {
		if strings.Contains(fi.url(), f1.Instance) {
			fi.kill()
			fmt.Printf("gpusimrouter: selftest killed instance %s\n", f1.Instance)
		}
	}
	v3, err := submit(`{"workload":"bfs","policy":"static","scale":8,"sms":2}`)
	if err != nil {
		return err
	}
	f3, err := wait(v3.ID)
	if err != nil {
		return err
	}
	if f3.Instance == f1.Instance {
		return fmt.Errorf("job %s claims the killed instance %s served it", f3.ID, f3.Instance)
	}
	if f3.Result.Report != f1.Result.Report {
		return fmt.Errorf("post-failover report diverges from the original")
	}
	fmt.Printf("gpusimrouter: selftest survived instance kill, rerouted to %s\n", f3.Instance)

	// Tracing + readiness: the failover job's merged fleet trace must
	// validate as Chrome-trace JSON and carry both router- and
	// instance-side stages, and /readyz must still call the degraded
	// fleet (one of three instances dead) routable.
	resp, err := http.Get(base + "/v1/traces/" + f3.ID)
	if err != nil {
		return err
	}
	traceJSON, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet trace for %s: status %d (%s)", f3.ID, resp.StatusCode, traceJSON)
	}
	if err := obs.ValidateChromeTrace(bytes.NewReader(traceJSON)); err != nil {
		return fmt.Errorf("fleet trace does not validate: %v", err)
	}
	for _, want := range []string{"router", "route", "run"} {
		if !strings.Contains(string(traceJSON), want) {
			return fmt.Errorf("fleet trace missing %q", want)
		}
	}
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		return err
	}
	var readyState cluster.Readiness
	err = json.NewDecoder(resp.Body).Decode(&readyState)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || readyState.Routable == 0 {
		return fmt.Errorf("readyz after one kill = %d (%+v), want 200 with routable instances", resp.StatusCode, readyState)
	}
	fmt.Printf("gpusimrouter: selftest fleet trace validated (%d bytes), readyz routable=%d/%d\n",
		len(traceJSON), readyState.Routable, readyState.Instances)

	// Fleet view and metrics: breaker/failover series must be exposed.
	resp, err = http.Get(base + "/v1/instances")
	if err != nil {
		return err
	}
	var insts []cluster.InstanceView
	if err := json.NewDecoder(resp.Body).Decode(&insts); err != nil {
		return err
	}
	resp.Body.Close()
	if len(insts) != 3 {
		return fmt.Errorf("instances view has %d entries, want 3", len(insts))
	}
	resp, err = http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		return err
	}
	promText := new(strings.Builder)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		promText.WriteString(sc.Text() + "\n")
	}
	resp.Body.Close()
	for _, want := range []string{"cluster_jobs_done", "cluster_breaker_state", "cluster_retries", "cluster_failovers"} {
		if !strings.Contains(promText.String(), want) {
			return fmt.Errorf("prometheus exposition missing %q", want)
		}
	}
	fmt.Println("gpusimrouter: selftest fleet telemetry ok")

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

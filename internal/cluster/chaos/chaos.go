// Package chaos is a deterministic fault-injection proxy for resilience
// tests, in the spirit of internal/faults one layer up the stack: every
// failure mode the cluster router must survive — latency spikes,
// connection resets, 5xx bursts, black-holed streams, and whole-instance
// kills — is injected on a seeded or explicitly scheduled basis, so
// every resilience path has a reproducible test instead of a flaky
// sleep-based one. The proxy sits between the router and one gpusimd
// instance and decides per inbound request, in arrival order, whether to
// forward it cleanly or fault it.
package chaos

import (
	"math/rand"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Fault is one injected failure mode.
type Fault int

const (
	// FaultNone forwards the request untouched.
	FaultNone Fault = iota
	// FaultLatency sleeps the configured Latency before forwarding — the
	// slow-instance case retries and deadlines must absorb.
	FaultLatency
	// FaultReset severs the TCP connection with an RST and no HTTP
	// response — the crashed-mid-request case.
	FaultReset
	// Fault5xx answers 503 from the proxy without reaching the backend —
	// the overloaded/misbehaving-instance case.
	Fault5xx
	// FaultBlackhole accepts the request and then sends nothing, holding
	// the connection open silently — the hung-instance case that only a
	// stall watchdog catches.
	FaultBlackhole
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultLatency:
		return "latency"
	case FaultReset:
		return "reset"
	case Fault5xx:
		return "5xx"
	default:
		return "blackhole"
	}
}

// Schedule decides the fault for the i-th request (0-based, arrival
// order) to a given path. Deterministic schedules make targeted tests
// exact ("the first two submits are reset"); Seeded builds a
// reproducible pseudo-random mix for matrix tests.
type Schedule func(i int, r *http.Request) Fault

// Clean never faults.
func Clean(int, *http.Request) Fault { return FaultNone }

// FirstN faults the first n requests matching pathPrefix ("" = all).
func FirstN(n int, f Fault, pathPrefix string) Schedule {
	var matched atomic.Int64
	return func(i int, r *http.Request) Fault {
		if pathPrefix != "" && !strings.HasPrefix(r.URL.Path, pathPrefix) {
			return FaultNone
		}
		if matched.Add(1) <= int64(n) {
			return f
		}
		return FaultNone
	}
}

// Seeded faults each request with probability prob, drawing the fault
// class uniformly from classes with a seeded RNG. The decision sequence
// is a pure function of the seed and arrival order.
func Seeded(seed uint64, prob float64, classes ...Fault) Schedule {
	if len(classes) == 0 {
		classes = []Fault{FaultLatency, FaultReset, Fault5xx}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	var mu sync.Mutex
	return func(i int, r *http.Request) Fault {
		mu.Lock()
		defer mu.Unlock()
		if rng.Float64() >= prob {
			return FaultNone
		}
		return classes[rng.Intn(len(classes))]
	}
}

// Proxy is one chaos-injecting reverse proxy in front of one backend.
type Proxy struct {
	backend *url.URL
	ln      net.Listener
	srv     *http.Server
	rp      *httputil.ReverseProxy

	mu       sync.Mutex
	schedule Schedule
	latency  time.Duration
	n        int64

	killed atomic.Bool
	done   chan struct{} // closed on Close/Kill: releases blackholed conns

	faults sync.Map // Fault -> *atomic.Int64, injection counts for assertions
}

// New starts a chaos proxy on a fresh loopback port in front of
// backendURL. latency is the delay FaultLatency injects.
func New(backendURL string, schedule Schedule, latency time.Duration) (*Proxy, error) {
	u, err := url.Parse(backendURL)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if schedule == nil {
		schedule = Clean
	}
	p := &Proxy{
		backend:  u,
		ln:       ln,
		schedule: schedule,
		latency:  latency,
		done:     make(chan struct{}),
	}
	p.rp = &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(u)
		},
		// Negative FlushInterval streams every write immediately — the
		// proxied SSE frames must not sit in a buffer.
		FlushInterval: -1,
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			// Backend gone (e.g. the test killed the instance): surface a
			// bare 502 so the router classifies it as an instance failure.
			w.WriteHeader(http.StatusBadGateway)
		},
	}
	p.srv = &http.Server{Handler: http.HandlerFunc(p.serve)}
	go p.srv.Serve(ln)
	return p, nil
}

// URL returns the proxy's base URL — what the router is configured with.
func (p *Proxy) URL() string { return "http://" + p.ln.Addr().String() }

// Counts reports how many times each fault class fired.
func (p *Proxy) Counts() map[Fault]int64 {
	out := make(map[Fault]int64)
	p.faults.Range(func(k, v any) bool {
		out[k.(Fault)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

func (p *Proxy) count(f Fault) {
	v, _ := p.faults.LoadOrStore(f, new(atomic.Int64))
	v.(*atomic.Int64).Add(1)
}

// Kill simulates the instance dying: the listener closes and every
// subsequent (and in-flight) exchange fails at the TCP level. Unlike
// Close it leaves the backend untouched — the test decides separately
// whether the real instance is dead too.
func (p *Proxy) Kill() {
	if p.killed.Swap(true) {
		return
	}
	close(p.done)
	p.srv.Close() // closes listener and all active connections
}

// Close shuts the proxy down.
func (p *Proxy) Close() {
	if !p.killed.Swap(true) {
		close(p.done)
	}
	p.srv.Close()
}

func (p *Proxy) serve(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	i := p.n
	p.n++
	sched := p.schedule
	latency := p.latency
	p.mu.Unlock()

	fault := sched(int(i), r)
	if fault != FaultNone {
		p.count(fault)
	}
	switch fault {
	case FaultLatency:
		select {
		case <-time.After(latency):
		case <-p.done:
			return
		}
	case FaultReset:
		hj, ok := w.(http.Hijacker)
		if !ok {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetLinger(0) // close sends RST, not FIN
		}
		conn.Close()
		return
	case Fault5xx:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"internal","message":"chaos: injected 5xx"}}`))
		return
	case FaultBlackhole:
		// Hold the connection open, send nothing, until the proxy dies or
		// the client gives up — exactly what a wedged instance looks like.
		select {
		case <-p.done:
		case <-r.Context().Done():
		}
		return
	}
	p.rp.ServeHTTP(w, r)
}

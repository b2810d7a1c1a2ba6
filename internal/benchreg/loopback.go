package benchreg

import (
	"net"
	"net/http"
	"time"

	"regmutex/internal/cluster"
	"regmutex/internal/service"
)

// loopback boots the in-process targets the load and sweep phases
// drive: gpusimd instances and gpusimrouters, each served on its own
// 127.0.0.1 listener. close stops everything in reverse boot order.
type loopback struct {
	stops []func()
}

func (lb *loopback) close() {
	for i := len(lb.stops) - 1; i >= 0; i-- {
		lb.stops[i]()
	}
}

// serve starts h on a fresh loopback listener and returns its base URL.
// close stops the server and then the backend; on error the backend is
// closed at once.
func (lb *loopback) serve(h http.Handler, closeBackend func()) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeBackend()
		return "", err
	}
	server := &http.Server{Handler: h}
	go server.Serve(ln)
	lb.stops = append(lb.stops, func() {
		server.Close()
		closeBackend()
	})
	return "http://" + ln.Addr().String(), nil
}

// instance boots a started gpusimd service with the given executor
// count and queue depth.
func (lb *loopback) instance(workers, queueDepth int) (*service.Service, string, error) {
	svc, err := service.New(service.Config{Workers: workers, QueueDepth: queueDepth})
	if err != nil {
		return nil, "", err
	}
	svc.Start()
	url, err := lb.serve(service.Handler(svc), svc.Close)
	return svc, url, err
}

// router boots a started gpusimrouter over the instance URLs.
func (lb *loopback) router(urls []string) (string, error) {
	r, err := cluster.New(cluster.Config{
		Instances:        urls,
		ProbeInterval:    100 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  500 * time.Millisecond,
		Retry:            cluster.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 250 * time.Millisecond},
		Seed:             1,
	})
	if err != nil {
		return "", err
	}
	r.Start()
	return lb.serve(cluster.Handler(r), r.Close)
}

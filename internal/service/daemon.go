package service

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Drainer is a started tier the daemon loop can stop: Drain finishes
// accepted work and closes, Close abandons what is left to the journal.
type Drainer interface {
	Drain(ctx context.Context) error
	Close()
}

// Serve is the daemon loop gpusimd and gpusimrouter share: serve h on
// addr until SIGTERM or SIGINT, then drain d for at most drainWait and
// shut the HTTP server down. The server keeps answering during the
// drain so clients can collect their results; new submissions see 503.
// When ready is non-nil the bound address is sent on it once accepting;
// attrs extend the "listening" log line.
func Serve(log *slog.Logger, addr string, h http.Handler, d Drainer, drainWait time.Duration, ready chan<- string, attrs ...any) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		d.Close()
		return err
	}
	server := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()
	log.Info("listening", append([]any{"addr", ln.Addr().String()}, attrs...)...)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)
	select {
	case err := <-errc:
		d.Close()
		return err
	case sig := <-sigc:
		log.Info("draining", "signal", sig.String(), "max_wait", drainWait.String())
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	drainErr := d.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	server.Shutdown(shutCtx)
	if drainErr != nil {
		d.Close() // journaled unfinished jobs replay on the next start
		return drainErr
	}
	log.Info("drained cleanly")
	return nil
}

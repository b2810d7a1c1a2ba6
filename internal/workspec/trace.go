package workspec

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"regmutex/internal/jsonl"
	"regmutex/internal/obs"
	"regmutex/internal/service"
)

// TraceRecord is one accepted submission: its arrival offset (ms from
// the recorder's first observation epoch) and the request itself.
// Traces are JSONL — one record per line — so a daemon can append
// under load and a torn final line only loses that line.
type TraceRecord struct {
	AtMS float64               `json:"at_ms"`
	Req  service.SubmitRequest `json:"req"`
}

// TraceWriter records accepted requests as a JSONL trace, one
// jsonl.Log append (a single write, no fsync) per record, so a crash
// loses at most a torn final line. Its Record method matches
// service.Config.OnAccept, so wiring a daemon for production-trace
// capture is one assignment (gpusimd -record). Safe for concurrent use.
type TraceWriter struct {
	mu    sync.Mutex
	log   *jsonl.Log[TraceRecord]
	start time.Time
	n     int
	err   error
}

// CreateTrace truncates path and opens it for recording. A trace holds
// one session: FromTrace rejects arrival offsets that go backwards, so a
// second session appended to the first would not replay.
func CreateTrace(path string) (*TraceWriter, error) {
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		return nil, err
	}
	log, _, err := jsonl.Open[TraceRecord](path, false, obs.NopLogger())
	if err != nil {
		return nil, err
	}
	return &TraceWriter{log: log, start: time.Now()}, nil
}

// Record appends one accepted request, stamped with its arrival offset.
// Errors are sticky and surface from Close — recording must never fail
// the admission path it observes.
func (t *TraceWriter) Record(req service.SubmitRequest) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at := time.Since(t.start).Seconds() * 1000
	if t.err == nil {
		t.err = t.log.Append(TraceRecord{AtMS: at, Req: req})
	}
	t.n++
}

// Count reports how many records were offered (including any dropped
// by a sticky write error).
func (t *TraceWriter) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Close closes the trace, returning the first write or close error.
func (t *TraceWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cerr := t.log.Close(); t.err == nil {
		t.err = cerr
	}
	return t.err
}

// ReadTrace parses a JSONL trace. A torn final line (a crash mid-append)
// is tolerated and skipped; corruption anywhere else is an error naming
// the line.
func ReadTrace(r io.Reader) ([]TraceRecord, error) {
	recs, _, err := jsonl.Read[TraceRecord](r)
	if err != nil {
		return nil, fmt.Errorf("workspec trace: %w", err)
	}
	return recs, nil
}

// ReadTraceFile loads a JSONL trace from disk.
func ReadTraceFile(path string) ([]TraceRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// FromTrace turns a recorded trace into a schedule — replay is just
// another schedule source. Arrival offsets are normalized so the first
// record fires at t=0 (the runner's Compress option time-compresses
// it); cohort and SLO class come from the recorded requests' Client
// and SLOClass attribution fields ("replay"/"default" when absent).
func FromTrace(name string, recs []TraceRecord) (*Schedule, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("workspec trace: empty trace")
	}
	if name == "" {
		name = "trace"
	}
	h := fnv.New64a()
	sched := &Schedule{SpecName: name}
	base := recs[0].AtMS
	for i, rec := range recs {
		cohort := rec.Req.Client
		if cohort == "" {
			cohort = "replay"
		}
		class := rec.Req.SLOClass
		if class == "" {
			class = "default"
		}
		at := time.Duration(math.Round((rec.AtMS-base)*1000)) * time.Microsecond
		if at < 0 {
			return nil, fmt.Errorf("workspec trace: record %d: arrival offset went backwards", i)
		}
		sched.Items = append(sched.Items, Item{
			Seq:      i,
			At:       at,
			Cohort:   cohort,
			SLOClass: class,
			Req:      rec.Req,
		})
		data, _ := json.Marshal(rec)
		h.Write(data)
		h.Write([]byte{'\n'})
	}
	sched.SpecID = fmt.Sprintf("%016x", h.Sum64())
	return sched, nil
}

package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanRecorderRingAndByTrace(t *testing.T) {
	r := NewSpanRecorder(4, "t")
	base := time.Unix(1000, 0)
	for i := 0; i < 6; i++ {
		trace := "a"
		if i%2 == 1 {
			trace = "b"
		}
		r.Record(Span{
			Trace: trace, Stage: StageRun,
			Start: base.Add(time.Duration(i) * time.Second),
			End:   base.Add(time.Duration(i)*time.Second + time.Millisecond),
		})
	}
	if got := r.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	all := r.All()
	if len(all) != 4 {
		t.Fatalf("retained %d spans, want 4", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Start.Before(all[i-1].Start) {
			t.Fatalf("spans not sorted by start: %v after %v", all[i].Start, all[i-1].Start)
		}
	}
	bs := r.ByTrace("b")
	if len(bs) != 2 {
		t.Fatalf("trace b: %d spans, want 2", len(bs))
	}
	for _, s := range bs {
		if s.Trace != "b" {
			t.Fatalf("ByTrace(b) returned trace %q", s.Trace)
		}
		if s.ID == "" || !strings.HasPrefix(s.ID, "t-") {
			t.Fatalf("span ID %q not minted with prefix", s.ID)
		}
	}
}

// TestSpanRecorderConcurrent: writers minting IDs and readers filtering
// the ring at once keep every minted ID unique and every record either
// held or counted as dropped.
func TestSpanRecorderConcurrent(t *testing.T) {
	const writers, each, capacity = 4, 200, 64
	r := NewSpanRecorder(capacity, "c")
	var wg sync.WaitGroup
	ids := make([][]string, writers)
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ids[w] = append(ids[w], r.NextID())
				r.Record(Span{Trace: "x", Stage: StageRun})
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.ByTrace("x")
			}
		}()
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, s := range r.All() {
		seen[s.ID] = true
	}
	for _, list := range ids {
		for _, id := range list {
			if seen[id] {
				t.Fatalf("ID %s minted twice", id)
			}
			seen[id] = true
		}
	}
	if held := len(r.All()); held != capacity || int64(held)+r.Dropped() != writers*each {
		t.Fatalf("held %d + dropped %d, want %d held of %d", held, r.Dropped(), capacity, writers*each)
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	if got := FormatTraceContext("req-1", "r-3"); got != "req-1/r-3" {
		t.Fatalf("FormatTraceContext = %q", got)
	}
	if got := FormatTraceContext("req-1", ""); got != "req-1" {
		t.Fatalf("FormatTraceContext no parent = %q", got)
	}
	tr, par := ParseTraceContext(" req-1/r-3 ")
	if tr != "req-1" || par != "r-3" {
		t.Fatalf("ParseTraceContext = %q, %q", tr, par)
	}
	tr, par = ParseTraceContext("req-9")
	if tr != "req-9" || par != "" {
		t.Fatalf("ParseTraceContext bare = %q, %q", tr, par)
	}

	ctx := WithTraceContext(context.Background(), "req-1", "r-3")
	tr, par, ok := TraceFromContext(ctx)
	if !ok || tr != "req-1" || par != "r-3" {
		t.Fatalf("TraceFromContext = %q, %q, %v", tr, par, ok)
	}
	if _, _, ok := TraceFromContext(context.Background()); ok {
		t.Fatal("TraceFromContext on empty ctx should report !ok")
	}
}

func TestSpanEventsChromeExport(t *testing.T) {
	base := time.Unix(2000, 0)
	spans := []Span{
		{Trace: "j1", ID: "r-1", Stage: StageRoute, Proc: "router", Start: base, End: base.Add(10 * time.Millisecond)},
		{Trace: "j1", ID: "i-1", Stage: StageRun, Proc: "gpusimd :1", Start: base.Add(2 * time.Millisecond), End: base.Add(8 * time.Millisecond)},
		{Trace: "j1", ID: "r-2", Stage: StageFailover, Proc: "router", Note: "inst-0", Start: base.Add(5 * time.Millisecond), End: base.Add(5 * time.Millisecond)},
	}
	evs := SpanEvents(spans)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Cycle != 0 || evs[0].Phase != PhaseSpan || evs[0].Dur != 10000 {
		t.Fatalf("route event = %+v", evs[0])
	}
	if evs[1].Cycle != 2000 {
		t.Fatalf("run event ts = %d, want 2000", evs[1].Cycle)
	}
	if evs[2].Phase != PhaseInstant {
		t.Fatalf("failover should export as instant, got %q", evs[2].Phase)
	}
	if evs[2].Name != "failover inst-0" {
		t.Fatalf("failover name = %q", evs[2].Name)
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := ValidateChromeTrace(&buf); err != nil {
		t.Fatalf("ValidateChromeTrace: %v", err)
	}
}

func TestBreakdownResidualRoute(t *testing.T) {
	base := time.Unix(3000, 0)
	ms := func(d int) time.Time { return base.Add(time.Duration(d) * time.Millisecond) }
	// One trace: route span 0..100ms enclosing queue 10..30, run 30..80,
	// stream 80..90. Residual route time = 100 - (20+50+10) = 20ms.
	spans := []Span{
		{Trace: "j1", Stage: StageRoute, Class: "interactive", Start: ms(0), End: ms(100)},
		{Trace: "j1", Stage: StageQueue, Class: "interactive", Start: ms(10), End: ms(30)},
		{Trace: "j1", Stage: StageRun, Class: "interactive", Start: ms(30), End: ms(80)},
		{Trace: "j1", Stage: StageStream, Class: "interactive", Start: ms(80), End: ms(90)},
	}
	rows := Breakdown(spans)
	want := map[string]time.Duration{
		"e2e":       100 * time.Millisecond,
		StageRoute:  20 * time.Millisecond,
		StageQueue:  20 * time.Millisecond,
		StageRun:    50 * time.Millisecond,
		StageStream: 10 * time.Millisecond,
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(rows), len(want), rows)
	}
	for _, r := range rows {
		if r.Class != "interactive" {
			t.Fatalf("row class = %q", r.Class)
		}
		if r.Count != 1 {
			t.Fatalf("stage %s count = %d", r.Stage, r.Count)
		}
		if r.P50 != want[r.Stage] || r.P99 != want[r.Stage] {
			t.Fatalf("stage %s p50/p99 = %v/%v, want %v", r.Stage, r.P50, r.P99, want[r.Stage])
		}
	}
	// Stage sum equals e2e exactly (conservation with residual route).
	var sum time.Duration
	for _, r := range rows {
		if r.Stage != "e2e" {
			sum += r.P50
		}
	}
	if sum != want["e2e"] {
		t.Fatalf("stage sum %v != e2e %v", sum, want["e2e"])
	}

	var buf bytes.Buffer
	if err := WriteBreakdown(&buf, rows); err != nil {
		t.Fatalf("WriteBreakdown: %v", err)
	}
	for _, col := range []string{"class", "interactive", "e2e", "route", "queue", "run", "stream"} {
		if !strings.Contains(buf.String(), col) {
			t.Fatalf("breakdown table missing %q:\n%s", col, buf.String())
		}
	}
}

func TestQuantileDurNearestRank(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := NearestRank(ds, 0.50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := NearestRank(ds, 0.99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := NearestRank(ds[:1], 0.99); got != 1*time.Millisecond {
		t.Fatalf("p99 of singleton = %v", got)
	}
	if got := NearestRank([]time.Duration(nil), 0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
}

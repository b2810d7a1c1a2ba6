package obs

import (
	"fmt"
	"io"
	"sort"
)

// causeGlyphs maps each stall cause (by its wire name, so the renderer
// needs no sim dependency) to its timeline glyph. The order breaks ties:
// when causes cover a bucket equally, the earliest listed one is drawn,
// and causes not listed come after, by name.
var causeGlyphs = []struct {
	cause string
	glyph rune
}{
	{"issued", '#'},
	{"scoreboard", 's'},
	{"memory", 'm'},
	{"acquire-wait", 'a'},
	{"barrier", 'b'},
	{"no-warp", '-'},
	{"empty", '.'},
}

// causeGlyph returns a cause's tie-break rank and glyph ('?' for a
// cause not in causeGlyphs).
func causeGlyph(cause string) (int, rune) {
	for i, c := range causeGlyphs {
		if c.cause == cause {
			return i, c.glyph
		}
	}
	return len(causeGlyphs), '?'
}

// RenderTimeline draws a Figure 2-style text timeline from a trace:
// one lane per warp/scheduler track whose buckets show the dominant
// activity ('#' issued, 's' scoreboard, 'm' memory, 'a' acquire-wait,
// 'b' barrier, '-' no warp, '.' empty), plus a sparkline per counter
// track. width is the number of buckets (72 when <= 0).
func RenderTimeline(w io.Writer, events []TraceEvent, width int) {
	if width <= 0 {
		width = 72
	}
	horizon := int64(0)
	type lane struct {
		name  string
		spans []TraceEvent
	}
	lanes := map[string]*lane{}
	counters := map[string][]TraceEvent{}
	for _, ev := range events {
		switch ev.Phase {
		case PhaseSpan:
			if ev.Cat != "slot" {
				continue
			}
			l := lanes[ev.Track]
			if l == nil {
				l = &lane{name: ev.Track}
				lanes[ev.Track] = l
			}
			l.spans = append(l.spans, ev)
			if end := ev.Cycle + ev.Dur; end > horizon {
				horizon = end
			}
		case PhaseCounter:
			counters[ev.Name] = append(counters[ev.Name], ev)
			if ev.Cycle > horizon {
				horizon = ev.Cycle
			}
		}
	}
	if horizon == 0 {
		fmt.Fprintln(w, "timeline: no events")
		return
	}

	names := make([]string, 0, len(lanes))
	for name := range lanes {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(w, "timeline over %d cycles (%d lanes): # issued, s scoreboard, m memory, a acquire-wait, b barrier, - no warp, . empty\n",
			horizon, len(names))
	}
	for _, name := range names {
		l := lanes[name]
		// Dominant cause per bucket, by covered cycles.
		cover := make([]map[string]int64, width)
		for _, sp := range l.spans {
			lo := sp.Cycle * int64(width) / horizon
			hi := (sp.Cycle + sp.Dur - 1) * int64(width) / horizon
			for b := lo; b <= hi && b < int64(width); b++ {
				bLo, bHi := b*horizon/int64(width), (b+1)*horizon/int64(width)
				covered := min64(sp.Cycle+sp.Dur, bHi) - max64(sp.Cycle, bLo)
				if covered <= 0 {
					continue
				}
				if cover[b] == nil {
					cover[b] = map[string]int64{}
				}
				cover[b][sp.Name] += covered
			}
		}
		row := make([]rune, width)
		for b := range row {
			row[b] = ' '
			var best int64
			bestCause, bestRank := "", 0
			for cause, n := range cover[b] {
				rank, g := causeGlyph(cause)
				if n > best || n == best && (rank < bestRank || rank == bestRank && cause < bestCause) {
					best, bestCause, bestRank = n, cause, rank
					row[b] = g
				}
			}
		}
		fmt.Fprintf(w, "  %-16s %s\n", l.name, string(row))
	}

	cnames := make([]string, 0, len(counters))
	for name := range counters {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	ramp := []rune("▁▂▃▄▅▆▇█")
	for _, name := range cnames {
		samples := counters[name]
		peak := int64(1)
		for _, s := range samples {
			if s.Value > peak {
				peak = s.Value
			}
		}
		row := make([]rune, width)
		for i := range row {
			row[i] = ' '
		}
		for b := 0; b < width; b++ {
			lo := b * len(samples) / width
			hi := (b + 1) * len(samples) / width
			if hi <= lo {
				hi = lo + 1
			}
			var m int64
			for i := lo; i < hi && i < len(samples); i++ {
				if samples[i].Value > m {
					m = samples[i].Value
				}
			}
			row[b] = ramp[m*int64(len(ramp)-1)/peak]
		}
		fmt.Fprintf(w, "  %-16s %s (peak %d)\n", name, string(row), peak)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// chromeEvent is one record of the Chrome trace-event format ("JSON
// Object Format", the kind chrome://tracing and Perfetto load directly).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports events as Chrome trace-event JSON. Cycles map
// to microseconds (ts/dur), each distinct Proc becomes a process with a
// process_name metadata record, and each (Proc, Track) pair becomes a
// named thread. The output loads in Perfetto (ui.perfetto.dev) and
// chrome://tracing.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	type procState struct {
		pid  int
		tids map[string]int
	}
	procs := map[string]*procState{}
	var meta, body []chromeEvent
	pidSeq, tidSeq := 0, 0

	lane := func(proc, track string) (int, int) {
		p := procs[proc]
		if p == nil {
			pidSeq++
			p = &procState{pid: pidSeq, tids: map[string]int{}}
			procs[proc] = p
			meta = append(meta, chromeEvent{
				Name: "process_name", Ph: "M", Pid: p.pid,
				Args: map[string]any{"name": proc},
			})
		}
		if track == "" {
			return p.pid, 0
		}
		tid, ok := p.tids[track]
		if !ok {
			tidSeq++
			tid = tidSeq
			p.tids[track] = tid
			meta = append(meta, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: p.pid, Tid: tid,
				Args: map[string]any{"name": track},
			})
		}
		return p.pid, tid
	}

	for _, ev := range events {
		pid, tid := lane(ev.Proc, ev.Track)
		ce := chromeEvent{Name: ev.Name, Cat: ev.Cat, Ts: ev.Cycle, Pid: pid, Tid: tid}
		switch ev.Phase {
		case PhaseSpan:
			dur := ev.Dur
			ce.Ph = "X"
			ce.Dur = &dur
		case PhaseInstant:
			ce.Ph = "i"
			ce.S = "t"
			if ev.Value >= 0 {
				ce.Args = map[string]any{"section": ev.Value}
			}
		case PhaseCounter:
			ce.Ph = "C"
			ce.Args = map[string]any{"value": ev.Value}
		default:
			return fmt.Errorf("obs: event %q has unknown phase %q", ev.Name, ev.Phase)
		}
		body = append(body, ce)
	}

	out := chromeFile{TraceEvents: append(meta, body...), DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// WriteTraceFile exports the trace's retained events to path as Chrome
// trace-event JSON.
func WriteTraceFile(path string, trace *Trace) error {
	return writeFile(path, func(w io.Writer) error { return WriteChromeTrace(w, trace.Events()) })
}

// writeFile creates path, streams write into it and reports the first
// of the write and close errors.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ValidateChromeTrace checks that r holds trace-event JSON the viewers
// will accept: a traceEvents array whose records carry a name, a known
// phase, non-negative timestamps, pid/tid lanes, a duration on spans,
// a numeric value on counters, and a name argument on metadata records.
// The gpusim -validate mode and the CI smoke run call this.
func ValidateChromeTrace(r io.Reader) error {
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("chrome trace: not valid JSON: %w", err)
	}
	if f.TraceEvents == nil {
		return fmt.Errorf("chrome trace: missing traceEvents array")
	}
	num := func(ev map[string]any, key string) (float64, bool) {
		v, ok := ev[key].(float64)
		return v, ok
	}
	for i, ev := range f.TraceEvents {
		name, _ := ev["name"].(string)
		if name == "" {
			return fmt.Errorf("chrome trace: event %d: missing name", i)
		}
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X":
			if d, ok := num(ev, "dur"); !ok || d < 0 {
				return fmt.Errorf("chrome trace: event %d (%s): span without non-negative dur", i, name)
			}
		case "i", "C":
		case "M":
			if name != "process_name" && name != "thread_name" {
				return fmt.Errorf("chrome trace: event %d: unknown metadata record %q", i, name)
			}
			args, _ := ev["args"].(map[string]any)
			if s, _ := args["name"].(string); s == "" {
				return fmt.Errorf("chrome trace: event %d (%s): metadata without args.name", i, name)
			}
			continue // metadata records carry no ts
		default:
			return fmt.Errorf("chrome trace: event %d (%s): unknown phase %q", i, name, ph)
		}
		if ts, ok := num(ev, "ts"); !ok || ts < 0 {
			return fmt.Errorf("chrome trace: event %d (%s): missing or negative ts", i, name)
		}
		if _, ok := num(ev, "pid"); !ok {
			return fmt.Errorf("chrome trace: event %d (%s): missing pid", i, name)
		}
		if _, ok := num(ev, "tid"); !ok {
			return fmt.Errorf("chrome trace: event %d (%s): missing tid", i, name)
		}
		if ph == "C" {
			args, _ := ev["args"].(map[string]any)
			if _, ok := args["value"].(float64); !ok {
				return fmt.Errorf("chrome trace: event %d (%s): counter without numeric args.value", i, name)
			}
		}
	}
	return nil
}

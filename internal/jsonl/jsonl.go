// Package jsonl reads JSONL files (one JSON record per line) and keeps
// crash-safe append-only JSONL logs. The gpusimd and gpusimrouter
// journals replay through Open; recorded workload traces load through
// Read.
//
// Both sides share one crash model: an append is a single write of the
// record and its newline, so a crash mid-append can only leave a torn
// final line. A record that fails to decode anywhere else is corruption,
// and silently dropping it could lose accepted work, so it is refused.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
)

// MaxLine is the longest line, newline included, that Read accepts.
// Log.Append refuses a record that would exceed it, so everything a Log
// writes can be replayed.
const MaxLine = 16 << 20

// ErrTooLong marks a record whose encoded line exceeds MaxLine.
var ErrTooLong = errors.New("jsonl: record longer than MaxLine")

// Read decodes every record of a JSONL stream. Blank lines are skipped.
// A final record that fails to decode — the partial write a crash
// mid-append leaves behind — is skipped and its line number returned as
// torn (0 when the tail is intact). A record that fails to decode
// anywhere else, or a line longer than MaxLine, is an error naming its
// line.
func Read[T any](r io.Reader) (recs []T, torn int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), MaxLine)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(bytes.TrimSpace(text)) == 0 {
			continue
		}
		if torn > 0 {
			return nil, 0, fmt.Errorf("corrupt record at line %d (not the final line)", torn)
		}
		var rec T
		if json.Unmarshal(text, &rec) != nil {
			torn = line
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, 0, fmt.Errorf("line %d: %w", line+1, ErrTooLong)
		}
		return nil, 0, err
	}
	return recs, torn, nil
}

// Log is an append-only JSONL file of T records, safe for concurrent
// use. A nil *Log is a disabled log: Append and Close do nothing.
type Log[T any] struct {
	mu    sync.Mutex
	f     *os.File
	fsync bool
}

// Open replays the log at path (creating it if absent) and opens it for
// appending. A torn final record is logged as a warning and truncated
// away, so the next append starts on a line of its own; an intact final
// record missing only its newline is kept and terminated. With fsync,
// every Append reaches stable storage before it returns. An empty path
// disables the log and returns a nil *Log.
func Open[T any](path string, fsync bool, logger *slog.Logger) (*Log[T], []T, error) {
	if path == "" {
		return nil, nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	recs, err := repair[T](f, logger.With("path", path))
	if err == nil && fsync {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Log[T]{f: f, fsync: fsync}, recs, nil
}

// repair reads f's records and leaves f ending in a newline after the
// last intact record.
func repair[T any](f *os.File, logger *slog.Logger) ([]T, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	recs, torn, err := Read[T](bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	end := len(data)
	if torn > 0 {
		logger.Warn("jsonl: truncating torn final record (crash mid-append)", "line", torn)
		end = lineStart(data, torn)
		if err := f.Truncate(int64(end)); err != nil {
			return nil, err
		}
	}
	if end > 0 && data[end-1] != '\n' {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// lineStart is the byte offset of 1-based line n in data.
func lineStart(data []byte, n int) int {
	off := 0
	for ; n > 1; n-- {
		off += bytes.IndexByte(data[off:], '\n') + 1
	}
	return off
}

// Append writes rec as one line. A record whose line would exceed
// MaxLine is refused with ErrTooLong and nothing is written.
func (l *Log[T]) Append(rec T) error {
	if l == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if len(line)+1 > MaxLine {
		return fmt.Errorf("%w (%d bytes)", ErrTooLong, len(line)+1)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("jsonl: %w", err)
	}
	if !l.fsync {
		return nil
	}
	return l.f.Sync()
}

// Close closes the log file.
func (l *Log[T]) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

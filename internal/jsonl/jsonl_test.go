package jsonl

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"regmutex/internal/obs"
)

type rec struct {
	ID string `json:"id"`
}

func TestReadAndOpen(t *testing.T) {
	oversized := `{"id":"` + strings.Repeat("x", MaxLine) + `"}` + "\n"
	for _, tc := range []struct {
		name    string
		content string
		want    []string // IDs replayed; nil with wantErr
		torn    int
		wantErr string
		// after is the file content once Open has repaired the log and
		// one more record {"id":"n"} has been appended.
		after string
	}{
		{
			name:    "intact",
			content: "{\"id\":\"a\"}\n{\"id\":\"b\"}\n",
			want:    []string{"a", "b"},
			after:   "{\"id\":\"a\"}\n{\"id\":\"b\"}\n{\"id\":\"n\"}\n",
		},
		{
			name:    "torn tail",
			content: "{\"id\":\"a\"}\n{\"id\":\"b",
			want:    []string{"a"},
			torn:    2,
			after:   "{\"id\":\"a\"}\n{\"id\":\"n\"}\n",
		},
		{
			name:    "torn tail after blank lines",
			content: "{\"id\":\"a\"}\n\n{\"id\":\"b\n\n",
			want:    []string{"a"},
			torn:    3,
			after:   "{\"id\":\"a\"}\n\n{\"id\":\"n\"}\n",
		},
		{
			name:    "intact tail missing its newline",
			content: "{\"id\":\"a\"}\n{\"id\":\"b\"}",
			want:    []string{"a", "b"},
			after:   "{\"id\":\"a\"}\n{\"id\":\"b\"}\n{\"id\":\"n\"}\n",
		},
		{
			name:    "blank lines",
			content: "\n{\"id\":\"a\"}\n  \n\n{\"id\":\"b\"}\n\n",
			want:    []string{"a", "b"},
			after:   "\n{\"id\":\"a\"}\n  \n\n{\"id\":\"b\"}\n\n{\"id\":\"n\"}\n",
		},
		{
			name:    "empty",
			content: "",
			after:   "{\"id\":\"n\"}\n",
		},
		{
			name:    "mid-file corruption",
			content: "{\"id\":\"a\"}\nGARBAGE\n{\"id\":\"b\"}\n",
			wantErr: "corrupt record at line 2",
		},
		{
			name:    "mid-file corruption followed by blank lines",
			content: "{\"id\":\"a\"}\nGARBAGE\n\n{\"id\":\"b\"}\n",
			wantErr: "corrupt record at line 2",
		},
		{
			name:    "oversized record",
			content: "{\"id\":\"a\"}\n" + oversized,
			wantErr: "line 2: jsonl: record longer than MaxLine",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, torn, err := Read[rec](strings.NewReader(tc.content))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Read err = %v, want %q", err, tc.wantErr)
				}
			} else if err != nil || torn != tc.torn || !reflect.DeepEqual(ids(got), tc.want) {
				t.Fatalf("Read = %v torn=%d err=%v, want %v torn=%d", ids(got), torn, err, tc.want, tc.torn)
			}

			path := filepath.Join(t.TempDir(), "log.jsonl")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			var logs bytes.Buffer
			logger, err := obs.NewLogger(&logs, obs.LogJSON, 0)
			if err != nil {
				t.Fatal(err)
			}
			l, replayed, err := Open[rec](path, true, logger)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Open err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ids(replayed), tc.want) {
				t.Fatalf("Open replayed %v, want %v", ids(replayed), tc.want)
			}
			if warned := strings.Contains(logs.String(), "torn final record"); warned != (tc.torn > 0) {
				t.Fatalf("torn-record warning logged=%v, want %v:\n%s", warned, tc.torn > 0, logs.String())
			}
			if err := l.Append(rec{ID: "n"}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != tc.after {
				t.Fatalf("file after reopen+append = %q, want %q", data, tc.after)
			}
			// The repaired log replays cleanly with the appended record last.
			l2, again, err := Open[rec](path, false, logger)
			if err != nil {
				t.Fatalf("reopen after append: %v", err)
			}
			l2.Close()
			if want := append(append([]string(nil), tc.want...), "n"); !reflect.DeepEqual(ids(again), want) {
				t.Fatalf("second replay = %v, want %v", ids(again), want)
			}
		})
	}
}

// TestAppendRefusesOversizedRecord: a record Read could not replay is
// never written, and the log stays usable.
func TestAppendRefusesOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _, err := Open[rec](path, false, obs.NopLogger())
	if err != nil {
		t.Fatal(err)
	}
	// {"id":"…"} plus the newline is the payload plus 10 bytes.
	if err := l.Append(rec{ID: strings.Repeat("x", MaxLine-9)}); !errors.Is(err, ErrTooLong) {
		t.Fatalf("Append(oversized) = %v, want ErrTooLong", err)
	}
	if err := l.Append(rec{ID: strings.Repeat("x", MaxLine-10)}); err != nil {
		t.Fatalf("Append(exactly MaxLine) = %v", err)
	}
	if err := l.Append(rec{ID: "b"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, got, err := Open[rec](path, false, obs.NopLogger())
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if len(got) != 2 || len(got[0].ID) != MaxLine-10 || got[1].ID != "b" {
		t.Fatalf("replayed %d records, want the MaxLine record then b", len(got))
	}
}

func ids(recs []rec) []string {
	var out []string
	for _, r := range recs {
		out = append(out, r.ID)
	}
	return out
}

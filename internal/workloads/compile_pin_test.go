package workloads

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"regmutex/internal/core"
	"regmutex/internal/occupancy"
)

// compilePinFile holds one line per compile case: the Lint finding count
// and the Kernel.Fingerprint of the Prepare output and of every Transform
// output, so any change to what the compiler emits fails by name.
const compilePinFile = "testdata/compile_pins.txt"

// compilePins compiles every Table I kernel at scale 8 (the perfbench
// compile workload's scale): Lint, Prepare, then Transform on GTX480 and
// GTX480Half under the heuristic, every even forced |Es| from 2 to 12,
// and the no-compaction ablation. A Transform that fails records its
// error text instead of a fingerprint.
func compilePins(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, w := range All() {
		k := w.Build(8)
		issues, err := core.Lint(k)
		if err != nil {
			t.Fatalf("%s: lint: %v", w.Name, err)
		}
		lines = append(lines, fmt.Sprintf("%s lint %d", w.Name, len(issues)))
		pre, err := core.Prepare(k)
		if err != nil {
			t.Fatalf("%s: prepare: %v", w.Name, err)
		}
		lines = append(lines, fmt.Sprintf("%s prepare %016x", w.Name, pre.Fingerprint()))
		for _, m := range []occupancy.Config{occupancy.GTX480(), occupancy.GTX480Half()} {
			opts := []core.Options{{Config: m}}
			for es := 2; es <= 12; es += 2 {
				opts = append(opts, core.Options{Config: m, ForceEs: es})
			}
			opts = append(opts, core.Options{Config: m, NoCompaction: true})
			for _, opt := range opts {
				out := "err: "
				if res, err := core.Transform(k, opt); err != nil {
					out += err.Error()
				} else {
					out = fmt.Sprintf("%016x", res.Kernel.Fingerprint())
				}
				lines = append(lines, fmt.Sprintf("%s/%s %s %s", w.Name, m.Name, optName(opt), out))
			}
		}
	}
	return lines
}

// TestCompileOutputPinned holds the compiler's output fixed: every Lint
// count, Prepare output and Transform output (or error) must equal the
// recorded line. A change that means to move compiler output rewrites
// testdata/compile_pins.txt in the same diff and says why.
func TestCompileOutputPinned(t *testing.T) {
	raw, err := os.ReadFile(compilePinFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	got := compilePins(t)
	if len(got) != len(want) {
		t.Fatalf("%d compile cases, %s pins %d", len(got), compilePinFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("compile output moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

func optName(opt core.Options) string {
	switch {
	case opt.ForceEs > 0:
		return fmt.Sprintf("es=%d", opt.ForceEs)
	case opt.NoCompaction:
		return "nocompaction"
	}
	return "heuristic"
}

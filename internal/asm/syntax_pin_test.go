package asm

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/workloads"
)

// syntaxPinFile holds one line per kernel: the Fingerprint of
// Parse(Format(k)), and FNV-1a hashes of the Format text and of the
// kernel's Instr.String listing, so any change to either printer or to
// what the parser builds fails by name.
const syntaxPinFile = "testdata/syntax_pins.txt"

// syntaxPins covers every Table I kernel at scale 8, raw and
// core.Transform'ed on GTX480 and GTX480Half, and every shipped
// examples/kernels file as parsed.
func syntaxPins(t *testing.T) []string {
	t.Helper()
	var lines []string
	pin := func(name string, k *isa.Kernel) {
		text := Format(k)
		k2, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: reparse: %v", name, err)
		}
		var listing strings.Builder
		for i := range k.Instrs {
			fmt.Fprintf(&listing, "%s\n", &k.Instrs[i])
		}
		lines = append(lines, fmt.Sprintf("%s kernel %016x format %016x string %016x",
			name, k2.Fingerprint(), fnv64(text), fnv64(listing.String())))
	}
	for _, w := range workloads.All() {
		k := w.Build(8)
		pin(w.Name, k)
		for _, m := range []occupancy.Config{occupancy.GTX480(), occupancy.GTX480Half()} {
			res, err := core.Transform(k, core.Options{Config: m})
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, m.Name, err)
			}
			pin(w.Name+"/"+m.Name, res.Kernel)
		}
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "kernels", "*.kasm"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped kernels (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		k, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		pin(filepath.Base(p), k)
	}
	return lines
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// TestSyntaxPinned holds the instruction syntax fixed: both printers'
// text and the parse of that text must equal the recorded line. A change
// that means to move the syntax rewrites testdata/syntax_pins.txt in the
// same diff and says why.
func TestSyntaxPinned(t *testing.T) {
	raw, err := os.ReadFile(syntaxPinFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	got := syntaxPins(t)
	if len(got) != len(want) {
		t.Fatalf("%d syntax cases, %s pins %d", len(got), syntaxPinFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("syntax moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

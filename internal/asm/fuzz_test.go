package asm

import (
	"os"
	"path/filepath"
	"testing"

	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/workloads"
)

// FuzzAsmRoundTrip checks that whatever Parse accepts, Format prints as
// text that parses to the same kernel (same Fingerprint, same branch
// target labels), and that Format is then a fixpoint. The seeds are the
// shipped examples/kernels files and the Format text of every Table I
// kernel, raw and transformed on GTX480 and GTX480Half.
//
//	go test ./internal/asm -run '^$' -fuzz FuzzAsmRoundTrip -fuzztime 30s
func FuzzAsmRoundTrip(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "examples", "kernels", "*.kasm"))
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, w := range workloads.All() {
		k := w.Build(8)
		f.Add(Format(k))
		for _, m := range []occupancy.Config{occupancy.GTX480(), occupancy.GTX480Half()} {
			res, err := core.Transform(k, core.Options{Config: m})
			if err != nil {
				f.Fatalf("%s/%s: %v", w.Name, m.Name, err)
			}
			f.Add(Format(res.Kernel))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		k, err := Parse(src)
		if err != nil {
			return
		}
		text := Format(k)
		k2, err := Parse(text)
		if err != nil {
			t.Fatalf("Format output does not parse: %v\n%s", err, text)
		}
		if k2.Fingerprint() != k.Fingerprint() {
			t.Fatalf("reparse moved the kernel:\n%s", text)
		}
		for i := range k.Instrs {
			if in := &k.Instrs[i]; in.Op == isa.OpBra && k.Instrs[in.Target].Label != k2.Instrs[in.Target].Label {
				t.Fatalf("instr %d: target label %q reparsed as %q", i, k.Instrs[in.Target].Label, k2.Instrs[in.Target].Label)
			}
		}
		if text2 := Format(k2); text2 != text {
			t.Fatalf("Format is not a fixpoint:\n%s\nvs\n%s", text, text2)
		}
	})
}

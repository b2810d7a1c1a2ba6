package asm

import (
	"strings"
	"testing"

	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/workloads"
)

const vecadd = `
; word-addressed vector add
.kernel vecadd
.regs 8
.pregs 1
.threads 128
.grid 4
.global 1536

    mov.special r0, %tid
    mov.special r1, %ctaid
    imad r2, r1, 128, r0
    ld.global r3, [r2+0]
    ld.global r4, [r2+512]
    iadd r5, r3, r4
    st.global [r2+1024], r5
    exit
`

func TestParseVecAdd(t *testing.T) {
	k, err := Parse(vecadd)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "vecadd" || k.NumRegs != 8 || k.ThreadsPerCTA != 128 || k.GridCTAs != 4 {
		t.Errorf("header mismatch: %+v", k)
	}
	if len(k.Instrs) != 8 {
		t.Fatalf("instrs = %d, want 8", len(k.Instrs))
	}
	ld := k.Instrs[4]
	if ld.Op != isa.OpLdGlobal || ld.Dst != 4 || ld.Off != 512 {
		t.Errorf("load parsed wrong: %s", &ld)
	}
	st := k.Instrs[6]
	if st.Op != isa.OpStGlobal || st.Off != 1024 || st.Srcs[1].Reg != 5 {
		t.Errorf("store parsed wrong: %s", &st)
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
.kernel loop
.regs 4
.pregs 1
.threads 32
.grid 1

    mov r0, 0
top:
    iadd r0, r0, 1
    setp.lt p0, r0, 10
    @p0 bra top
    @!p0 bra done
done:
    exit
`
	k, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if k.Instrs[3].Target != 1 {
		t.Errorf("bra target = %d, want 1", k.Instrs[3].Target)
	}
	if !k.Instrs[4].Guard.Neg || k.Instrs[4].Target != 5 {
		t.Errorf("negated guard branch parsed wrong: %+v", k.Instrs[4])
	}
	if k.Instrs[2].Op != isa.OpSetp || k.Instrs[2].Cmp != isa.CmpLT {
		t.Errorf("setp parsed wrong: %s", &k.Instrs[2])
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown opcode":    ".kernel x\n.regs 4\n.pregs 0\n.threads 32\n.grid 1\nfrobnicate r0\nexit",
		"undefined label":   ".kernel x\n.regs 4\n.pregs 1\n.threads 32\n.grid 1\nbra nowhere\nexit",
		"bad register":      ".kernel x\n.regs 4\n.pregs 0\n.threads 32\n.grid 1\nmov r99z, 1\nexit",
		"bad directive":     ".kernel x\n.wat 3\nexit",
		"duplicate label":   ".kernel x\n.regs 4\n.pregs 0\n.threads 32\n.grid 1\na:\nnop\na:\nexit",
		"operand count":     ".kernel x\n.regs 4\n.pregs 0\n.threads 32\n.grid 1\niadd r0, r1\nexit",
		"guard alone":       ".kernel x\n.regs 4\n.pregs 1\n.threads 32\n.grid 1\n@p0\nexit",
		"bad special":       ".kernel x\n.regs 4\n.pregs 0\n.threads 32\n.grid 1\nmov.special r0, %bogus\nexit",
		"bad mem operand":   ".kernel x\n.regs 4\n.pregs 0\n.threads 32\n.grid 1\nld.global r0, r1\nexit",
		"register overflow": ".kernel x\n.regs 4\n.pregs 0\n.threads 32\n.grid 1\nmov r7, 1\nexit",
		// Each scalar must be the whole token: no hex, exponent or
		// trailing text after the number.
		"hex immediate":      ".kernel x\n.regs 4\n.pregs 0\n.threads 32\n.grid 1\niadd r1, r2, 0x10\nexit",
		"exponent immediate": ".kernel x\n.regs 4\n.pregs 0\n.threads 32\n.grid 1\nmov r1, 1e3\nexit",
		"register suffix":    ".kernel x\n.regs 8\n.pregs 0\n.threads 32\n.grid 1\nmov r5x, 1\nexit",
		"immediate suffix":   ".kernel x\n.regs 8\n.pregs 0\n.threads 32\n.grid 1\nmov r5, 12abc\nexit",
		"hex offset":         ".kernel x\n.regs 4\n.pregs 0\n.threads 32\n.grid 1\nld.global r1, [r2+0x8]\nexit",
		"directive suffix":   ".kernel x\n.regs 8x\n.pregs 0\n.threads 32\n.grid 1\nexit",
		"predicate suffix":   ".kernel x\n.regs 4\n.pregs 1\n.threads 32\n.grid 1\n@p0x mov r1, 1\nexit",
		"signed register":    ".kernel x\n.regs 4\n.pregs 0\n.threads 32\n.grid 1\nmov r+1, 1\nexit",
		"empty address":      ".kernel x\n.regs 4\n.pregs 0\n.threads 32\n.grid 1\nld.global r1, []\nexit",
		"label at end":       ".kernel x\n.regs 4\n.pregs 0\n.threads 32\n.grid 1\nexit\nend:",
		"grid missing":       ".kernel x\n.regs 4\n.pregs 0\n.threads 32\nexit",
		"negative shared":    ".kernel x\n.regs 4\n.pregs 0\n.threads 32\n.grid 1\n.shared -4\nexit",
		"negative global":    ".kernel x\n.regs 4\n.pregs 0\n.threads 32\n.grid 1\n.global -3\nexit",
		"setp.f without cmp": ".kernel x\n.regs 4\n.pregs 1\n.threads 32\n.grid 1\nsetp.f p0, r0, 1\nexit",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: Parse accepted invalid input", name)
		}
	}
}

// Round trip: Format then Parse must reproduce the kernel, for every
// workload kernel, both raw and RegMutex-transformed.
func TestRoundTripWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		k := w.Build(8)
		checkRoundTrip(t, w.Name, k)

		machine := occupancy.GTX480()
		if !w.RegisterLimited {
			machine = occupancy.GTX480Half()
		}
		res, err := core.Transform(k, core.Options{Config: machine})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkRoundTrip(t, w.Name+"+regmutex", res.Kernel)
	}
}

func checkRoundTrip(t *testing.T, name string, k *isa.Kernel) {
	t.Helper()
	text := Format(k)
	k2, err := Parse(text)
	if err != nil {
		t.Errorf("%s: reparse: %v", name, err)
		return
	}
	if len(k2.Instrs) != len(k.Instrs) {
		t.Errorf("%s: instr count %d -> %d", name, len(k.Instrs), len(k2.Instrs))
		return
	}
	for i := range k.Instrs {
		a, b := &k.Instrs[i], &k2.Instrs[i]
		if a.Op != b.Op || a.Dst != b.Dst || a.PDst != b.PDst || a.Cmp != b.Cmp ||
			a.Off != b.Off || a.Guard != b.Guard || a.Spec != b.Spec {
			t.Errorf("%s: instr %d differs: %s vs %s", name, i, a, b)
			return
		}
		if a.Op == isa.OpBra && a.Target != b.Target {
			t.Errorf("%s: instr %d target %d vs %d", name, i, a.Target, b.Target)
			return
		}
		for s := 0; s < isa.NumSrcs(a.Op); s++ {
			if a.Srcs[s] != b.Srcs[s] {
				t.Errorf("%s: instr %d src %d differs", name, i, s)
				return
			}
		}
	}
	if k2.NumRegs != k.NumRegs || k2.ThreadsPerCTA != k.ThreadsPerCTA ||
		k2.BaseSet != k.BaseSet || k2.ExtSet != k.ExtSet {
		t.Errorf("%s: header differs", name)
	}
	// Formatting the reparse reproduces the text (fixpoint).
	if text2 := Format(k2); text2 != text {
		t.Errorf("%s: Format not a fixpoint:\n%s\nvs\n%s", name, head(text), head(text2))
	}
}

func head(s string) string {
	lines := strings.SplitN(s, "\n", 12)
	return strings.Join(lines, "\n")
}

func TestParseSyntaxCorners(t *testing.T) {
	src := `
; full-line comment
.kernel corners
.regs 8
.pregs 2
.threads 32
.grid 1
.shared 16
.global 64
.baseset 6
.extset 2

    mov r0, -5            ; trailing comment
    mov.special r1, %laneid
    mov.special r2, %warpid
    mov.special r3, %nctaid
    ld.global r4, [r0+-3]
    ld.shared r5, [r1+0]
    st.shared [r1+2], r5
    setp.f.le p1, r4, 0
    @!p1 iadd r6, r4, r5
    acq
    mov r7, r6
    rel
    bar.sync
    exit
`
	k, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if k.BaseSet != 6 || k.ExtSet != 2 || k.SharedMemWords != 16 {
		t.Errorf("directives lost: %+v", k)
	}
	if k.Instrs[0].Srcs[0].Imm != -5 {
		t.Errorf("negative immediate parsed as %d", k.Instrs[0].Srcs[0].Imm)
	}
	if k.Instrs[4].Off != -3 {
		t.Errorf("negative offset parsed as %d", k.Instrs[4].Off)
	}
	if k.Instrs[7].Op != isa.OpSetpF || k.Instrs[7].Cmp != isa.CmpLE {
		t.Errorf("setp.f.le parsed as %s", &k.Instrs[7])
	}
	g := k.Instrs[8].Guard
	if g.Unguarded() || !g.Neg || g.Pred != 1 {
		t.Errorf("@!p1 guard parsed as %+v", g)
	}
	if k.Instrs[9].Op != isa.OpAcq || k.Instrs[11].Op != isa.OpRel || k.Instrs[12].Op != isa.OpBarSync {
		t.Error("sync ops parsed wrong")
	}
	// And the whole thing round-trips.
	checkRoundTrip(t, "corners", k)
}

func TestFormatGeneratesLabelsForAnonymousTargets(t *testing.T) {
	b := isa.NewBuilder("anon", 4, 1, 32)
	b.Mov(0, isa.Imm(0))
	b.Label("x")
	b.IAdd(0, isa.R(0), isa.Imm(1))
	b.Setp(0, isa.CmpLT, isa.R(0), isa.Imm(3))
	b.BraIf(0, "x")
	b.Exit()
	k := b.MustKernel()
	// Strip the label: Format must invent one.
	k.Instrs[1].Label = ""
	text := Format(k)
	if !strings.Contains(text, "L1:") {
		t.Errorf("generated label missing:\n%s", text)
	}
	if _, err := Parse(text); err != nil {
		t.Errorf("generated text does not reparse: %v", err)
	}
}

func TestParseAllSpecialRegisters(t *testing.T) {
	for s := isa.SpecTID; s <= isa.SpecWarpID; s++ {
		name := s.String()
		src := ".kernel s\n.regs 2\n.pregs 0\n.threads 32\n.grid 1\nmov.special r0, " + name + "\nst.global [r0+0], r0\nexit"
		if _, err := Parse(src); err != nil {
			t.Errorf("special %s: %v", name, err)
		}
	}
}

func TestParseRejectsTrailingGarbage(t *testing.T) {
	src := ".kernel g\n.regs 4\n.pregs 0\n.threads 32\n.grid 1\niadd r0, r1, r2, r3\nexit"
	if _, err := Parse(src); err == nil {
		t.Error("extra operand accepted")
	}
}

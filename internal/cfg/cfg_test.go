package cfg

import (
	"testing"

	"regmutex/internal/isa"
)

// diamond builds:
//
//	b0: setp p0; @p0 bra THEN
//	b1: (else) iadd r1; bra JOIN
//	b2: THEN: iadd r2
//	b3: JOIN: iadd r3; exit
func diamond(t *testing.T) *isa.Kernel {
	t.Helper()
	b := isa.NewBuilder("diamond", 8, 2, 32)
	b.Setp(0, isa.CmpLT, isa.R(0), isa.Imm(5))
	b.BraIf(0, "then")
	b.IAdd(1, isa.R(1), isa.Imm(1))
	b.Bra("join")
	b.Label("then")
	b.IAdd(2, isa.R(2), isa.Imm(1))
	b.Label("join")
	b.IAdd(3, isa.R(3), isa.Imm(1))
	b.Exit()
	return b.MustKernel()
}

func loop(t *testing.T) *isa.Kernel {
	t.Helper()
	b := isa.NewBuilder("loop", 8, 2, 32)
	b.Mov(0, isa.Imm(0))
	b.Label("top")
	b.IAdd(0, isa.R(0), isa.Imm(1))
	b.Setp(0, isa.CmpLT, isa.R(0), isa.Imm(4))
	b.BraIf(0, "top")
	b.Exit()
	return b.MustKernel()
}

func TestBuildDiamond(t *testing.T) {
	k := diamond(t)
	g, err := Build(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(g.Blocks))
	}
	// Entry has two successors.
	if len(g.Blocks[0].Succs) != 2 {
		t.Fatalf("entry succs = %v", g.Blocks[0].Succs)
	}
	// Join has two predecessors.
	join := g.BlockOf(5)
	if len(g.Blocks[join].Preds) != 2 {
		t.Errorf("join preds = %v", g.Blocks[join].Preds)
	}
}

func TestIPDomDiamond(t *testing.T) {
	k := diamond(t)
	g, err := Build(k)
	if err != nil {
		t.Fatal(err)
	}
	join := g.BlockOf(5)
	if got := g.IPDomBlock(0); got != join {
		t.Errorf("ipdom(entry) = %d, want join %d", got, join)
	}
	// The branch at instruction 1 reconverges at the join's first instr (5).
	if got := g.ReconvPC(1); got != 5 {
		t.Errorf("ReconvPC = %d, want 5", got)
	}
	// The join post-dominates to exit.
	if got := g.IPDomBlock(join); got != -1 {
		t.Errorf("ipdom(join) = %d, want -1 (virtual exit)", got)
	}
}

func TestLoopCFG(t *testing.T) {
	k := loop(t)
	g, err := Build(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3 (preheader, body, exit)", len(g.Blocks))
	}
	body := g.BlockOf(1)
	// Back edge: body is its own successor.
	selfLoop := false
	for _, s := range g.Blocks[body].Succs {
		if s == body {
			selfLoop = true
		}
	}
	if !selfLoop {
		t.Errorf("loop body should have a back edge to itself; succs=%v", g.Blocks[body].Succs)
	}
	// The divergent loop branch reconverges at the loop exit (instr 4).
	if got := g.ReconvPC(3); got != 4 {
		t.Errorf("loop branch ReconvPC = %d, want 4", got)
	}
}

func TestRegionBlocksDiamond(t *testing.T) {
	k := diamond(t)
	g, err := Build(k)
	if err != nil {
		t.Fatal(err)
	}
	region := g.RegionBlocks(0)
	if len(region) != 2 {
		t.Fatalf("region = %v, want the two arms", region)
	}
	join := g.BlockOf(5)
	for _, b := range region {
		if b == 0 || b == join {
			t.Errorf("region %v contains branch or join block", region)
		}
	}
}

func TestAnnotateReconvergence(t *testing.T) {
	k := diamond(t)
	g, err := Build(k)
	if err != nil {
		t.Fatal(err)
	}
	AnnotateReconvergence(k, g)
	if k.Instrs[1].Reconv != 5 {
		t.Errorf("branch reconv = %d, want 5", k.Instrs[1].Reconv)
	}
	// Unconditional branch in the else arm also gets an annotation
	// (harmless: uniform branches never push divergence entries).
	if k.Instrs[3].Reconv == 0 {
		t.Errorf("unconditional branch reconv unset")
	}
}

func TestNestedDivergence(t *testing.T) {
	b := isa.NewBuilder("nested", 8, 2, 32)
	b.Setp(0, isa.CmpLT, isa.R(0), isa.Imm(5))
	b.BraIf(0, "outerthen") // 1
	b.Setp(1, isa.CmpLT, isa.R(1), isa.Imm(3))
	b.BraIf(1, "innerthen") // 3
	b.IAdd(2, isa.R(2), isa.Imm(1))
	b.Label("innerthen")
	b.IAdd(3, isa.R(3), isa.Imm(1)) // 5 = inner join
	b.Label("outerthen")
	b.IAdd(4, isa.R(4), isa.Imm(1)) // 6 = outer join
	b.Exit()
	k := b.MustKernel()
	g, err := Build(k)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.ReconvPC(1); got != 6 {
		t.Errorf("outer branch reconv = %d, want 6", got)
	}
	if got := g.ReconvPC(3); got != 5 {
		t.Errorf("inner branch reconv = %d, want 5", got)
	}
	// Inner region nested strictly inside outer region.
	outer := g.RegionBlocks(g.BlockOf(1))
	inner := g.RegionBlocks(g.BlockOf(3))
	outerSet := map[int]bool{}
	for _, x := range outer {
		outerSet[x] = true
	}
	for _, x := range inner {
		if !outerSet[x] {
			t.Errorf("inner region block %d not inside outer region %v", x, outer)
		}
	}
}

func TestBlockOfCoversAllInstrs(t *testing.T) {
	for _, mk := range []func(*testing.T) *isa.Kernel{diamond, loop} {
		k := mk(t)
		g, err := Build(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range k.Instrs {
			b := g.BlockOf(i)
			if i < g.Blocks[b].Start || i >= g.Blocks[b].End {
				t.Errorf("%s: instr %d mapped to block %d [%d,%d)", k.Name, i, b, g.Blocks[b].Start, g.Blocks[b].End)
			}
		}
	}
}

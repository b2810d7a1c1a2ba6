package cfg

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"regmutex/internal/isa"
)

// randomKernel builds a random but well-formed kernel: a straight spine
// of ALU instructions with random forward/backward guarded branches, ending
// in exit. All CFGs it produces are reducible or irreducible alike — the
// iterative post-dominator algorithm must handle both.
func randomKernel(seed int64) *isa.Kernel {
	rng := rand.New(rand.NewSource(seed))
	n := 8 + rng.Intn(24)
	b := isa.NewBuilder("rand", 8, 2, 32)
	// Create labels up front so branches can target any point.
	for i := 0; i < n; i++ {
		b.Label(labelName(i))
		switch rng.Intn(4) {
		case 0:
			if rng.Intn(2) == 0 {
				b.Setp(0, isa.CmpLT, isa.R(isa.Reg(rng.Intn(8))), isa.Imm(int64(rng.Intn(16))))
			} else {
				b.IAdd(isa.Reg(rng.Intn(8)), isa.R(isa.Reg(rng.Intn(8))), isa.Imm(1))
			}
		case 1:
			// Guarded branch to a random label (forward or back).
			b.BraIf(isa.PReg(rng.Intn(2)), labelName(rng.Intn(n)))
		default:
			b.IAdd(isa.Reg(rng.Intn(8)), isa.R(isa.Reg(rng.Intn(8))), isa.Imm(int64(rng.Intn(9))))
		}
	}
	b.Label(labelName(n))
	b.Exit()
	k, err := b.Kernel()
	if err != nil {
		panic(err)
	}
	return k
}

func labelName(i int) string {
	return "L" + string(rune('A'+i/26)) + string(rune('a'+i%26))
}

// Property: the graph's instruction successors follow the ISA — none
// after exit, the target of an unguarded branch, the target and the
// fall-through of a guarded one, the fall-through otherwise — the
// predecessors are their exact inverse in increasing order, and the
// successors agree with the block edges: inside a block control falls
// through, and a block's last instruction enters exactly its successor
// blocks, each at its start. randomKernel's branches are all guarded, so
// the diamond's unguarded branch is checked too.
func TestInstrEdgesMatchISAProperty(t *testing.T) {
	f := func(seed int64) bool { return instrEdgesMatchISA(randomKernel(seed)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	for _, k := range []*isa.Kernel{diamond(t), loop(t)} {
		if !instrEdgesMatchISA(k) {
			t.Errorf("%s: instruction edges disagree with the ISA or the block edges", k.Name)
		}
	}
}

func instrEdgesMatchISA(k *isa.Kernel) bool {
	g, err := Build(k)
	if err != nil {
		return false
	}
	n := len(k.Instrs)
	inverse := make([][]int, n)
	for i := range k.Instrs {
		var want []int
		switch in := &k.Instrs[i]; {
		case in.Op == isa.OpExit:
		case in.Op == isa.OpBra:
			want = append(want, in.Target)
			if !in.Guard.Unguarded() && i+1 < n {
				want = append(want, i+1)
			}
		default:
			want = append(want, i+1)
		}
		got := g.InstrSuccs(i)
		if !sameSet(got, want) {
			return false
		}
		b := g.Blocks[g.BlockOf(i)]
		var entered []int
		for _, s := range got {
			inverse[s] = append(inverse[s], i)
			if i < b.End-1 && s != i+1 {
				return false
			}
			if i == b.End-1 {
				if g.Blocks[g.BlockOf(s)].Start != s {
					return false
				}
				entered = append(entered, g.BlockOf(s))
			}
		}
		if i == b.End-1 && !sameSet(entered, b.Succs) {
			return false
		}
	}
	for i := range k.Instrs {
		if !slices.Equal(g.InstrPreds(i), inverse[i]) {
			return false
		}
	}
	return true
}

// sameSet reports whether a and b hold the same elements, ignoring order
// and repeats.
func sameSet(a, b []int) bool {
	norm := func(xs []int) []int {
		xs = slices.Clone(xs)
		slices.Sort(xs)
		return slices.Compact(xs)
	}
	return slices.Equal(norm(a), norm(b))
}

// Property: a branch's reconvergence point (when it exists) post-dominates
// the branch: every path from the branch to program exit passes it. We
// verify by deleting the reconvergence block and checking the exit is no
// longer reachable from the branch.
func TestReconvergencePostDominates(t *testing.T) {
	f := func(seed int64) bool {
		k := randomKernel(seed)
		g, err := Build(k)
		if err != nil {
			return false
		}
		for i := range k.Instrs {
			if k.Instrs[i].Op != isa.OpBra {
				continue
			}
			rpc := g.ReconvPC(i)
			if rpc < 0 {
				continue
			}
			rb := g.BlockOf(rpc)
			bb := g.BlockOf(i)
			if rb == bb {
				continue
			}
			if pathToExitAvoiding(g, bb, rb) {
				return false // found an exit path that skips the "reconvergence"
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// reachableBlocks runs a DFS from the entry block.
func reachableBlocks(g *Graph) map[int]bool {
	seen := map[int]bool{}
	stack := []int{0}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, g.Blocks[b].Succs...)
	}
	return seen
}

// pathToExitAvoiding reports whether a block with no successors (or the
// instruction-stream end) is reachable from start without entering avoid.
func pathToExitAvoiding(g *Graph, start, avoid int) bool {
	seen := map[int]bool{avoid: true}
	stack := []int{start}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		if len(g.Blocks[b].Succs) == 0 {
			return true
		}
		stack = append(stack, g.Blocks[b].Succs...)
	}
	return false
}

// Property: blocks partition the instruction stream: contiguous,
// non-overlapping, covering.
func TestBlockPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		k := randomKernel(seed)
		g, err := Build(k)
		if err != nil {
			return false
		}
		next := 0
		for _, blk := range g.Blocks {
			if blk.Start != next || blk.End <= blk.Start {
				return false
			}
			next = blk.End
		}
		return next == len(k.Instrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: RegionBlocks never contains the branch block or the
// reconvergence block, and every member is reachable from the branch.
func TestRegionBlocksProperty(t *testing.T) {
	f := func(seed int64) bool {
		k := randomKernel(seed)
		g, err := Build(k)
		if err != nil {
			return false
		}
		for i := range k.Instrs {
			if k.Instrs[i].Op != isa.OpBra || k.Instrs[i].Guard.Unguarded() {
				continue
			}
			bb := g.BlockOf(i)
			stop := g.IPDomBlock(bb)
			for _, rb := range g.RegionBlocks(bb) {
				if rb == stop {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

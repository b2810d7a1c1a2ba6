// Package cfg builds the control-flow graph of an ISA kernel: the one
// definition of "what can follow instruction i" that every compiler pass
// reads. The graph holds basic blocks with their edges, the same edges at
// instruction granularity, and immediate post-dominators, which give the
// SIMT reconvergence points for divergent branches (paper section
// III-A1).
package cfg

import (
	"fmt"
	"sort"

	"regmutex/internal/isa"
)

// Block is one basic block: the half-open instruction range [Start, End).
type Block struct {
	ID    int
	Start int
	End   int
	Succs []int // successor block IDs
	Preds []int // predecessor block IDs
}

// Graph is the CFG of a kernel. Block 0 is the entry. Exit is a virtual
// node (ID == len(Blocks)) that every OpExit block and every block ending
// the instruction stream flows into; it exists only in the
// post-dominance computation, not in Blocks.
type Graph struct {
	Kernel *isa.Kernel
	Blocks []Block

	blockOf []int // instruction index -> block ID

	succs [][]int // instruction index -> successor instructions
	preds [][]int // instruction index -> predecessor instructions

	ipdom []int // immediate post-dominator per block (exit for terminal)
}

// exitID returns the virtual exit node's ID.
func (g *Graph) exitID() int { return len(g.Blocks) }

// Build constructs the CFG for k.
func Build(k *isa.Kernel) (*Graph, error) {
	n := len(k.Instrs)
	if n == 0 {
		return nil, fmt.Errorf("cfg: kernel %s is empty", k.Name)
	}
	leader := make([]bool, n)
	leader[0] = true
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if in.Op == isa.OpBra {
			if in.Target < 0 || in.Target >= n {
				return nil, fmt.Errorf("cfg: kernel %s: branch at %d targets %d", k.Name, i, in.Target)
			}
			leader[in.Target] = true
			if i+1 < n {
				leader[i+1] = true
			}
		}
		if in.Op == isa.OpExit && i+1 < n {
			leader[i+1] = true
		}
	}
	g := &Graph{Kernel: k, blockOf: make([]int, n)}
	for i := 0; i < n; {
		j := i + 1
		for j < n && !leader[j] {
			j++
		}
		// A block also ends at its own branch/exit even if the next
		// instruction was not marked (it always is, but be safe).
		g.Blocks = append(g.Blocks, Block{ID: len(g.Blocks), Start: i, End: j})
		for t := i; t < j; t++ {
			g.blockOf[t] = len(g.Blocks) - 1
		}
		i = j
	}
	// Edges.
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		last := &k.Instrs[b.End-1]
		addEdge := func(to int) {
			b.Succs = append(b.Succs, to)
		}
		switch {
		case last.Op == isa.OpBra:
			addEdge(g.blockOf[last.Target])
			if !last.Guard.Unguarded() && b.End < n {
				addEdge(g.blockOf[b.End]) // fall through when not taken
			}
		case last.Op == isa.OpExit:
			// flows to virtual exit only
		default:
			if b.End < n {
				addEdge(g.blockOf[b.End])
			} else {
				return nil, fmt.Errorf("cfg: kernel %s: control falls off the end of block %d", k.Name, bi)
			}
		}
	}
	for bi := range g.Blocks {
		for _, s := range g.Blocks[bi].Succs {
			g.Blocks[s].Preds = append(g.Blocks[s].Preds, bi)
		}
	}
	g.instrEdges()
	g.computePostDominators()
	return g, nil
}

// instrEdges derives the instruction-level edges from the block edges:
// inside a block control falls through, and a block's last instruction
// flows to the first instruction of each successor block (once, when a
// guarded branch targets its own fall-through). Predecessor lists are
// the exact inverse, in increasing source order.
func (g *Graph) instrEdges() {
	n := len(g.Kernel.Instrs)
	g.succs = make([][]int, n)
	g.preds = make([][]int, n)
	// Each instruction has at most one successor, except that a block's
	// last one may have two: n+len(Blocks) bounds the edge count.
	edges := make([]int, 0, n+len(g.Blocks))
	for _, b := range g.Blocks {
		for t := b.Start; t < b.End-1; t++ {
			edges = append(edges, t+1)
			g.succs[t] = edges[len(edges)-1 : len(edges) : len(edges)]
		}
		lo := len(edges)
		for _, s := range b.Succs {
			if start := g.Blocks[s].Start; len(edges) == lo || edges[lo] != start {
				edges = append(edges, start)
			}
		}
		g.succs[b.End-1] = edges[lo:len(edges):len(edges)]
	}
	npred := make([]int, n)
	for _, s := range edges {
		npred[s]++
	}
	back := make([]int, len(edges))
	for i, c := range npred {
		g.preds[i], back = back[:0:c], back[c:]
	}
	for i, ss := range g.succs {
		for _, s := range ss {
			g.preds[s] = append(g.preds[s], i)
		}
	}
}

// BlockOf returns the block ID containing instruction index i.
func (g *Graph) BlockOf(i int) int { return g.blockOf[i] }

// InstrSuccs returns the instructions that can execute right after
// instruction i: none after exit, the target of an unguarded branch, the
// target and the fall-through of a guarded one, and the fall-through
// otherwise. The slice is shared; do not modify it.
func (g *Graph) InstrSuccs(i int) []int { return g.succs[i] }

// InstrPreds returns the instructions that InstrSuccs leads to i, in
// increasing order. The slice is shared; do not modify it.
func (g *Graph) InstrPreds(i int) []int { return g.preds[i] }

// IPDomBlock returns the immediate post-dominator block of b, or -1 when
// the only post-dominator is the virtual exit.
func (g *Graph) IPDomBlock(b int) int {
	p := g.ipdom[b]
	if p == g.exitID() {
		return -1
	}
	return p
}

// ReconvPC returns the reconvergence instruction index for a potentially
// divergent branch at instruction i: the first instruction of the
// branch block's immediate post-dominator block. Returns -1 when control
// only reconverges at thread exit.
func (g *Graph) ReconvPC(i int) int {
	b := g.blockOf[i]
	p := g.IPDomBlock(b)
	if p == -1 {
		return -1
	}
	return g.Blocks[p].Start
}

// RegionBlocks returns the blocks strictly "inside" the divergent region
// of the branch ending block b: every block reachable from a successor of
// b without passing through the reconvergence block. The reconvergence
// block itself is excluded; b is excluded. Used by the divergence-aware
// liveness widening (paper section III-A1).
func (g *Graph) RegionBlocks(b int) []int {
	stop := g.ipdom[b]
	seen := make(map[int]bool)
	var stack []int
	for _, s := range g.Blocks[b].Succs {
		if s != stop {
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == stop || seen[x] || x == g.exitID() {
			continue
		}
		seen[x] = true
		for _, s := range g.Blocks[x].Succs {
			stack = append(stack, s)
		}
	}
	out := make([]int, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

// computePostDominators runs the classic iterative bit-vector dominator
// algorithm on the reversed graph with the virtual exit as root. Graphs
// here are tiny (tens of blocks), so simplicity wins.
func (g *Graph) computePostDominators() {
	n := len(g.Blocks) + 1 // + virtual exit
	exit := n - 1
	succs := make([][]int, n)
	for b := range g.Blocks {
		succs[b] = g.Blocks[b].Succs
		if len(succs[b]) == 0 {
			succs[b] = []int{exit}
		}
	}
	full := make([]uint64, (n+63)/64)
	for i := range full {
		full[i] = ^uint64(0)
	}
	pdom := make([][]uint64, n)
	for b := range pdom {
		pdom[b] = append([]uint64(nil), full...)
	}
	for i := range pdom[exit] {
		pdom[exit][i] = 0
	}
	pdom[exit][exit/64] |= 1 << uint(exit%64)
	changed := true
	for changed {
		changed = false
		for b := n - 2; b >= 0; b-- {
			nv := append([]uint64(nil), full...)
			for _, s := range succs[b] {
				for i := range nv {
					nv[i] &= pdom[s][i]
				}
			}
			nv[b/64] |= 1 << uint(b%64)
			for i := range nv {
				if nv[i] != pdom[b][i] {
					pdom[b] = nv
					changed = true
					break
				}
			}
		}
	}
	ip := idomFromSets(pdom, exit)
	g.ipdom = ip[:len(g.Blocks)]
}

// idomFromSets extracts immediate dominators from full dominator sets:
// the immediate dominator of b is the strict dominator of b that is
// dominated by every other strict dominator of b.
func idomFromSets(dom [][]uint64, root int) []int {
	n := len(dom)
	has := func(b, d int) bool { return dom[b][d/64]&(1<<uint(d%64)) != 0 }
	idom := make([]int, n)
	for b := range idom {
		idom[b] = -1
		if b == root {
			continue
		}
		for d := 0; d < n; d++ {
			if d == b || !has(b, d) {
				continue
			}
			// d strictly dominates b; is it immediate? Yes when every
			// other strict dominator e of b also dominates d.
			immediate := true
			for e := 0; e < n; e++ {
				if e == b || e == d || !has(b, e) {
					continue
				}
				if !has(d, e) {
					immediate = false
					break
				}
			}
			if immediate {
				idom[b] = d
				break
			}
		}
	}
	return idom
}

// AnnotateReconvergence fills Instr.Reconv for every branch in the kernel
// with its computed reconvergence PC. It mutates k (call on a clone).
func AnnotateReconvergence(k *isa.Kernel, g *Graph) {
	for i := range k.Instrs {
		if k.Instrs[i].Op == isa.OpBra {
			k.Instrs[i].Reconv = g.ReconvPC(i)
		}
	}
}

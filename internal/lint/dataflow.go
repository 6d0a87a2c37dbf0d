package lint

// The forward dataflow engine under the path-sensitive analyzers: a
// classic iterative fixpoint over the CFG with bitset fact lattices.
// Analyzers express their protocol as a per-block transfer function
// that may refine facts per outgoing edge (branch sensitivity: the
// false edge of `obs != nil` carries "obs is nil").

// BitSet is a fixed-capacity fact set. Analyzers allocate one bit per
// tracked fact (an obligation, a variable's state); functions with more
// facts than fit are not a case that arises — the sets grow by words.
type BitSet []uint64

// NewBitSet returns an all-zero set able to hold n facts.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

func (s BitSet) Has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }
func (s BitSet) Set(i int)      { s[i/64] |= 1 << (i % 64) }
func (s BitSet) Clear(i int)    { s[i/64] &^= 1 << (i % 64) }

// Clone returns an independent copy.
func (s BitSet) Clone() BitSet {
	c := make(BitSet, len(s))
	copy(c, s)
	return c
}

// Equal reports bitwise equality.
func (s BitSet) Equal(o BitSet) bool {
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// IntersectWith sets s to s ∩ o.
func (s BitSet) IntersectWith(o BitSet) {
	for i := range s {
		s[i] &= o[i]
	}
}

// UnionWith sets s to s ∪ o.
func (s BitSet) UnionWith(o BitSet) {
	for i := range s {
		s[i] |= o[i]
	}
}

// Fill sets every fact (the ⊤ of a must-analysis).
func (s BitSet) Fill() {
	for i := range s {
		s[i] = ^uint64(0)
	}
}

// FlowSpec describes one forward dataflow problem.
type FlowSpec struct {
	// Bits is the fact-domain size.
	Bits int
	// Must selects the meet: true = intersection (a fact holds only if
	// it holds on every path; unreached blocks start at ⊤), false =
	// union (a fact holds if it may hold on some path; start at ⊥).
	Must bool
	// Transfer maps a block's in-state to one out-state per successor
	// edge, in Succs order. The returned sets may alias each other and
	// the input only if unmodified; edge-refined sets must be fresh.
	Transfer func(b *Block, in BitSet) []BitSet
}

// Flow runs the fixpoint and returns the in-state of every block.
// Blocks unreachable from the entry keep their initial value (⊤ for
// must, ⊥ for may), so reports never fire in dead code under a must
// analysis.
func (c *CFG) Flow(spec FlowSpec) []BitSet {
	n := len(c.Blocks)
	ins := make([]BitSet, n)
	for i := range ins {
		ins[i] = NewBitSet(spec.Bits)
		if spec.Must && i != c.Entry {
			ins[i].Fill()
		}
	}

	// edgeOuts[b][k] is the out-state along block b's k-th edge.
	edgeOuts := make([][]BitSet, n)

	// Worklist seeded with every block in index order (the builder
	// emits blocks roughly in source order, so this converges fast).
	inList := make([]bool, n)
	var list []int
	push := func(i int) {
		if !inList[i] {
			inList[i] = true
			list = append(list, i)
		}
	}
	for i := 0; i < n; i++ {
		push(i)
	}
	for len(list) > 0 {
		i := list[0]
		list = list[1:]
		inList[i] = false
		b := c.Blocks[i]
		edgeOuts[i] = spec.Transfer(b, ins[i].Clone())
		for _, e := range b.Succs {
			merged := c.meetInto(spec, e.To, edgeOuts)
			if !merged.Equal(ins[e.To]) {
				ins[e.To] = merged
				push(e.To)
			}
		}
	}
	return ins
}

// meetInto recomputes a block's in-state as the meet over every known
// incoming edge-out (edges whose source has not run yet contribute the
// initial value, which is the meet identity).
func (c *CFG) meetInto(spec FlowSpec, target int, edgeOuts [][]BitSet) BitSet {
	acc := NewBitSet(spec.Bits)
	first := true
	for _, b := range c.Blocks {
		for k, e := range b.Succs {
			if e.To != target || edgeOuts[b.Index] == nil {
				continue
			}
			out := edgeOuts[b.Index][k]
			if first {
				copy(acc, out)
				first = false
			} else if spec.Must {
				acc.IntersectWith(out)
			} else {
				acc.UnionWith(out)
			}
		}
	}
	if first && spec.Must && target != c.Entry {
		// No predecessor has produced an out yet: initial value.
		acc.Fill()
	}
	return acc
}

// UniformOuts is the common transfer tail: every successor edge gets
// the same out-state.
func UniformOuts(b *Block, out BitSet) []BitSet {
	outs := make([]BitSet, len(b.Succs))
	for i := range outs {
		outs[i] = out
	}
	return outs
}

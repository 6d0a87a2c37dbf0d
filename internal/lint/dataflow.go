package lint

// The forward dataflow engine under the path-sensitive analyzer: a
// classic iterative fixpoint over the CFG with bitset fact lattices.
// errlost asks a may-question (can an unchecked error reach this point
// on some path?), so the meet is union and a block's facts flow
// unchanged along each of its edges.

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

// UnionWith sets s to s ∪ o.
func (s BitSet) UnionWith(o BitSet) {
	for i := range s {
		s[i] |= o[i]
	}
}

// FlowSpec describes one forward may-analysis: a fact holds on entry
// to a block when it may hold at the end of some predecessor.
type FlowSpec struct {
	// Bits is the fact-domain size.
	Bits int
	// Transfer maps a block's in-state to its out-state. It owns in (a
	// copy) and may modify and return it.
	Transfer func(b *Block, in BitSet) BitSet
}

// Flow runs the fixpoint and returns the in-state of every block.
func (c *CFG) Flow(spec FlowSpec) []BitSet {
	n := len(c.Blocks)
	ins := make([]BitSet, n)
	for i := range ins {
		ins[i] = NewBitSet(spec.Bits)
	}

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
		out := spec.Transfer(c.Blocks[i], ins[i].Clone())
		for _, to := range c.Blocks[i].Succs {
			merged := ins[to].Clone()
			merged.UnionWith(out)
			if !merged.Equal(ins[to]) {
				ins[to] = merged
				push(to)
			}
		}
	}
	return ins
}

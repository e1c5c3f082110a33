// Package sparse implements the sparsity substrate of the SAMO reproduction:
// pruning masks, the shared linearized index tensors that SAMO's compressed
// model states are built on (Section III-B of the paper), the gather/scatter
// "compress" and "expand" primitives (Section III-C), and reference CSR
// spMM/SDDMM kernels standing in for Sputnik/cuSPARSE.
package sparse

import "fmt"

// Mask is a bitset over the linearized (1-D view) elements of a parameter
// tensor: bit i set means parameter i is *unpruned* (non-zero). The paper
// stores only the indices of unpruned parameters; Mask is the intermediate
// representation produced by pruning algorithms.
type Mask struct {
	n    int
	bits []uint64
}

// NewMask returns an all-pruned (empty) mask over n elements.
func NewMask(n int) *Mask {
	return &Mask{n: n, bits: make([]uint64, (n+63)/64)}
}

// FullMask returns a mask with every element unpruned.
func FullMask(n int) *Mask {
	m := NewMask(n)
	for i := range m.bits {
		m.bits[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 && len(m.bits) > 0 {
		m.bits[len(m.bits)-1] = (1 << r) - 1
	}
	return m
}

// Len returns the number of elements the mask covers.
func (m *Mask) Len() int { return m.n }

// Set marks element i unpruned.
func (m *Mask) Set(i int) {
	m.check(i)
	m.bits[i/64] |= 1 << (i % 64)
}

// Clear marks element i pruned.
func (m *Mask) Clear(i int) {
	m.check(i)
	m.bits[i/64] &^= 1 << (i % 64)
}

// Get reports whether element i is unpruned.
func (m *Mask) Get(i int) bool {
	m.check(i)
	return m.bits[i/64]&(1<<(i%64)) != 0
}

func (m *Mask) check(i int) {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("sparse: mask index %d out of range [0,%d)", i, m.n))
	}
}

// Count returns the number of unpruned elements.
func (m *Mask) Count() int {
	c := 0
	for _, w := range m.bits {
		c += popcount(w)
	}
	return c
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Indices returns the sorted linearized indices of unpruned elements as
// int32 — the paper's `ind` tensor (32-bit suffices for the largest models
// in existence, as the paper notes).
func (m *Mask) Indices() []int32 {
	idx := make([]int32, 0, m.Count())
	for w, word := range m.bits {
		for word != 0 {
			b := word & (-word)
			i := w*64 + trailingZeros(word)
			idx = append(idx, int32(i))
			word ^= b
		}
	}
	return idx
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// HammingDistance returns the number of positions where the two masks
// disagree, normalized by length — the convergence metric of the Early-Bird
// Ticket algorithm (You et al.).
func HammingDistance(a, b *Mask) float64 {
	if a.n != b.n {
		panic("sparse: HammingDistance on masks of different lengths")
	}
	if a.n == 0 {
		return 0
	}
	d := 0
	for i := range a.bits {
		d += popcount(a.bits[i] ^ b.bits[i])
	}
	return float64(d) / float64(a.n)
}

// FromIndices builds a mask over n elements with the given unpruned indices.
func FromIndices(n int, idx []int32) *Mask {
	m := NewMask(n)
	for _, i := range idx {
		m.Set(int(i))
	}
	return m
}

// Apply zeroes the pruned elements of data in place (the "fill zeros
// explicitly in the dense matrix" operation that keeps θ16 dense).
func (m *Mask) Apply(data []float32) {
	if len(data) != m.n {
		panic(fmt.Sprintf("sparse: Apply on %d elements with %d-element mask", len(data), m.n))
	}
	for i := range data {
		if !m.Get(i) {
			data[i] = 0
		}
	}
}

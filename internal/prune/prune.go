// Package prune implements the neural-network pruning algorithms that
// produce the sparse subnetworks SAMO exploits. The paper uses You et al.'s
// "Early-Bird Tickets" (ICLR 2020) to prune 90% of the parameters; this
// package provides that algorithm plus the magnitude/random baselines pruning
// papers compare against, all emitting the same Result consumed by SAMO:
// per-layer index sets of unpruned parameters (the paper's ind = ⋃ indᵢ).
package prune

import (
	"fmt"
	"math"
	"sort"

	"github.com/sparse-dl/samo/internal/sparse"
)

// Layer describes one prunable parameter tensor.
type Layer struct {
	Name   string
	Values []float32 // current parameter values (flattened 1-D view)
}

// Result is the output of a pruning algorithm: one shared index per layer.
type Result struct {
	Names   []string
	Indices map[string]*sparse.Index
}

// Sparsity returns the achieved global pruned fraction.
func (r *Result) Sparsity() float64 {
	var total, kept int
	for _, ix := range r.Indices {
		total += ix.FullLen()
		kept += ix.NNZ()
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(kept)/float64(total)
}

// TotalParams returns the unpruned parameter count φ.
func (r *Result) TotalParams() int {
	var total int
	for _, ix := range r.Indices {
		total += ix.FullLen()
	}
	return total
}

// KeptParams returns the number of surviving parameters fφ.
func (r *Result) KeptParams() int {
	var kept int
	for _, ix := range r.Indices {
		kept += ix.NNZ()
	}
	return kept
}

// Index returns the index for a layer, or nil if the layer is not pruned.
func (r *Result) Index(name string) *sparse.Index {
	if r == nil {
		return nil
	}
	return r.Indices[name]
}

// MaterializeCSR turns one layer's pruning index into executable sparse
// state: a CSR over the (rows, cols) matrix view of the layer, holding the
// surviving entries of values (the layer's current dense parameters, in the
// same 1-D view the index addresses). This is the bridge from "indices that
// compress storage" to "a matrix sparse kernels can run on" — nil if the
// layer is not pruned.
func (r *Result) MaterializeCSR(name string, values []float32, rows, cols int) *sparse.CSR {
	ix := r.Index(name)
	if ix == nil {
		return nil
	}
	if len(values) != ix.FullLen() {
		panic(fmt.Sprintf("prune: MaterializeCSR %s: %d values for a %d-element layer",
			name, len(values), ix.FullLen()))
	}
	return sparse.CSRFromDenseIndexed(ix, values, rows, cols)
}

// MagnitudeGlobal prunes the globally smallest |w| until the target sparsity
// is reached, the classic lottery-ticket criterion (Frankle & Carbin). Exact
// ties are broken by layer order then index, keeping results deterministic.
func MagnitudeGlobal(layers []Layer, sparsity float64) *Result {
	checkSparsity(sparsity)
	type entry struct {
		layer int
		idx   int32
		bits  uint32
	}
	var total int
	for _, l := range layers {
		total += len(l.Values)
	}
	entries := make([]entry, 0, total)
	for li, l := range layers {
		for i, v := range l.Values {
			entries = append(entries, entry{layer: li, idx: int32(i), bits: magBits(v)})
		}
	}
	sort.Slice(entries, func(a, b int) bool {
		ea, eb := entries[a], entries[b]
		if ea.bits != eb.bits {
			return ea.bits < eb.bits
		}
		if ea.layer != eb.layer {
			return ea.layer < eb.layer
		}
		return ea.idx < eb.idx
	})
	nPrune := int(sparsity * float64(total))
	masks := make([]*sparse.Mask, len(layers))
	for li, l := range layers {
		masks[li] = sparse.FullMask(len(l.Values))
	}
	for _, e := range entries[:nPrune] {
		masks[e.layer].Clear(int(e.idx))
	}
	return resultFromMasks(layers, masks)
}

// MagnitudePerLayer prunes the smallest |w| within each layer independently,
// so every layer hits exactly the target sparsity (the uniform pruning the
// paper's memory model assumes).
func MagnitudePerLayer(layers []Layer, sparsity float64) *Result {
	checkSparsity(sparsity)
	masks := make([]*sparse.Mask, len(layers))
	for li, l := range layers {
		masks[li] = maskSmallest(l.Values, int(sparsity*float64(len(l.Values))))
	}
	return resultFromMasks(layers, masks)
}

// maskSmallest prunes the nPrune smallest-magnitude entries. The sort key
// is the magnitude's IEEE-754 bit pattern packed with the element index,
// which is a TOTAL order: monotone with |v| over all finite values, −0
// tied with +0, every NaN above +Inf (so NaNs are kept, never silently
// pruned). A float comparator is not — NaN breaks its strict weak
// ordering and the selection at the cut becomes an implementation accident
// — so equal magnitudes at the threshold are pruned in ascending index
// order on every machine, and gradual schedules replay identically.
func maskSmallest(values []float32, nPrune int) *sparse.Mask {
	keys := make([]uint64, len(values))
	for i, v := range values {
		keys[i] = uint64(magBits(v))<<32 | uint64(uint32(i))
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	m := sparse.FullMask(len(values))
	for _, k := range keys[:nPrune] {
		m.Clear(int(uint32(k)))
	}
	return m
}

// magBits returns the IEEE-754 bit pattern of |v| — the order-preserving
// integer magnitude key shared by every magnitude criterion here and by
// the in-training gradual pruner, so all of them break ties identically.
func magBits(v float32) uint32 { return math.Float32bits(v) &^ (1 << 31) }

// Random prunes a uniformly random subset of each layer to the target
// sparsity — the control baseline showing magnitude information matters for
// accuracy (it does not matter for SAMO's memory/communication savings,
// which depend only on the count).
func Random(layers []Layer, sparsity float64, seed uint64) *Result {
	checkSparsity(sparsity)
	rng := newSplitMix(seed)
	masks := make([]*sparse.Mask, len(layers))
	for li, l := range layers {
		n := len(l.Values)
		perm := rng.perm(n)
		m := sparse.FullMask(n)
		for _, i := range perm[:int(sparsity*float64(n))] {
			m.Clear(i)
		}
		masks[li] = m
	}
	return resultFromMasks(layers, masks)
}

func resultFromMasks(layers []Layer, masks []*sparse.Mask) *Result {
	r := &Result{Indices: make(map[string]*sparse.Index, len(layers))}
	for li, l := range layers {
		r.Names = append(r.Names, l.Name)
		r.Indices[l.Name] = sparse.NewIndex(masks[li])
	}
	return r
}

func checkSparsity(s float64) {
	if s < 0 || s >= 1 {
		panic(fmt.Sprintf("prune: sparsity %g out of range [0,1)", s))
	}
}

// splitMix is a local deterministic RNG (duplicated from tensor to avoid the
// dependency for a package that only needs permutations).
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (r *splitMix) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitMix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Package prune implements the neural-network pruning algorithms that
// produce the sparse subnetworks SAMO exploits. The paper uses You et al.'s
// "Early-Bird Tickets" (ICLR 2020) to prune 90% of the parameters; this
// package provides that algorithm over per-layer magnitude pruning, emitting
// the Result consumed by SAMO: per-layer index sets of unpruned parameters
// (the paper's ind = ⋃ indᵢ).
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
// integer magnitude key shared with the in-training gradual pruner, so both
// break ties identically.
func magBits(v float32) uint32 { return math.Float32bits(v) &^ (1 << 31) }

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

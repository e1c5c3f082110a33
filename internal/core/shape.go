package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"github.com/sparse-dl/samo/internal/fp16"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/sparse"
)

// shape is one parameter's storage shape, shared by ModelState and
// InferenceState. It is the only code in this package that reads a
// parameter's index, SAMO flag or CSR; every other file asks it.
// Four shapes exist:
//
//   - dense: unpruned; every state vector is parameter-length;
//   - masked-dense (pruned, Dense mode): state vectors stay parameter-length,
//     but gradients are captured only at the index's ids, so pruned
//     coordinates stay exactly zero — the reference SAMO must match bit for
//     bit;
//   - SAMO-compressed (pruned, SAMO mode): state vectors hold only the
//     index's ids, and dense θ16 is their expansion with zeros between;
//   - CSR weight (a Sparsify'd Linear's W, in either mode): the parameter
//     owns its pattern, and its Value is the CSR's values in the SAMO
//     index's id order, so its state vectors are pattern-length and in the
//     order a SAMO-compressed shape over the same matrix would hold them.
//
// A new weight format is a new shape here; the states, the pruner and the
// snapshot code read it only through these methods.
type shape struct {
	p *nn.Param
	// ix is the state's private clone of the parameter's pruning index
	// (gradual pruning and shrink-on-load shrink it in place); compressed
	// selects SAMO storage over it.
	ix         *sparse.Index
	compressed bool
}

// shapesOf builds the shape of every parameter of model, in Params order.
// It applies the pruning masks to dense θ16 and rounds θ16 onto the fp16
// grid, so a training and a forward-only state built from the same identity
// start bitwise-identical. pr may be nil for Dense mode.
func shapesOf(model *nn.Model, mode Mode, pr *prune.Result) []*shape {
	if mode == SAMO && pr == nil {
		panic("core: SAMO mode requires a pruning result")
	}
	var shapes []*shape
	for _, p := range model.Params() {
		s := &shape{p: p}
		if pr != nil && nn.Prunable(p) {
			if shared := pr.Index(p.Name); shared != nil {
				s.ix = shared.Clone()
				s.ix.Mask().Apply(p.Value.Data())
				s.compressed = mode == SAMO
			}
		}
		fp16.RoundSlice(p.Value.Data(), p.Value.Data(), nil)
		shapes = append(shapes, s)
	}
	return shapes
}

// full is the pattern-independent element count: the dense matrix a CSR
// weight stores, the tensor size otherwise.
func (s *shape) full() int {
	if c := s.p.CSR; c != nil {
		return c.Rows * c.Cols
	}
	return s.p.Size()
}

// stored is the length of every state vector (θ32, ∇θ16, optimizer state)
// of this parameter.
func (s *shape) stored() int {
	if s.compressed {
		return s.ix.NNZ()
	}
	return s.p.Size()
}

// patternSized reports whether stored follows the pattern, so a shrink
// compacts the state vectors; masked-dense vectors stay full-length.
func (s *shape) patternSized() bool { return s.compressed || s.p.CSR != nil }

// shrinkable reports whether the parameter has a pattern to prune.
func (s *shape) shrinkable() bool { return s.ix != nil || s.p.CSR != nil }

// nnz is the current pattern length of a shrinkable parameter.
func (s *shape) nnz() int {
	if s.ix != nil {
		return s.ix.NNZ()
	}
	return s.p.Size()
}

// ids returns the stored pattern's ascending dense-view ids, nil for a
// parameter without one. Freshly allocated for a CSR weight; aliased for
// index shapes (callers must not modify).
func (s *shape) ids() []int32 {
	if c := s.p.CSR; c != nil {
		return c.LinearIDs()
	}
	if s.ix != nil {
		return s.ix.IDs()
	}
	return nil
}

// csrBytes is a CSR weight's structure — row pointers and column indices —
// which the ledger charges as index bytes; 0 for every other shape.
func (s *shape) csrBytes() int64 {
	if c := s.p.CSR; c != nil {
		return 4 * int64(len(c.RowPtr)+len(c.ColIdx))
	}
	return 0
}

// samoBytes are the two ledger lines only SAMO storage has: the shared
// index, and the paper's 2fφ half copy a GPU down-cast materialises before
// expanding it. The fused round-and-scatter here never does, so the second
// is the model's charge, not an allocation.
func (s *shape) samoBytes() (index, tempCopy int64) {
	if !s.compressed {
		return 0, 0
	}
	return s.ix.Bytes(), BytesTheta16 * int64(s.ix.NNZ())
}

// gather copies dense θ16 into a stored-length vector (θ32 at construction).
func (s *shape) gather(dst []float32) {
	if s.compressed {
		s.ix.Compress(dst, s.p.Value.Data())
	} else {
		copy(dst, s.p.Value.Data())
	}
}

// patternOf returns a stored vector's values in pattern order: v itself,
// except for masked-dense, whose full-length v is gathered through the
// index. Allocates for masked-dense; prune events only.
func (s *shape) patternOf(v []float32) []float32 {
	if s.compressed || s.ix == nil {
		return v
	}
	out := make([]float32, s.ix.NNZ())
	s.ix.Compress(out, v)
	return out
}

// capture drains the parameter's dense gradient accumulator into its ∇θ16
// vector, one fused fp16 kernel per shape: accumulate (a pipelined schedule
// captures once per microbatch), round onto the fp16 grid, and leave p.Grad
// zero: p.Grad is a view into the state's one-layer scratch, and the next
// layer's backward accumulates into the same bytes.
func (s *shape) capture(grad16 []float32) {
	g := s.p.Grad.Data()
	switch {
	case s.compressed:
		// Compress: gather the unpruned coordinates as they accumulate.
		fp16.AccumRoundGather(grad16, g, s.ix.IDs())
		s.p.Grad.Zero()
	case s.ix != nil:
		// Masked-dense: pruned coordinates carry no gradient, so they (and
		// their optimizer states) stay exactly zero.
		fp16.AccumRoundAt(grad16, g, s.ix.IDs())
		s.p.Grad.Zero()
	default:
		fp16.AccumRoundClear(grad16, g)
	}
}

// expand rebuilds dense θ16 from master weights θ32: rounded onto the fp16
// grid and, under SAMO, scattered to the unpruned coordinates. The scatter
// never zero-fills; it relies on the pruned coordinates of θ16 being zero
// already (shapesOf applies the mask, shrink zeroes each coordinate a
// pattern drops, and every write in between goes through the index). The
// same sweep zeroes drain (the step's ∇θ16) unless it is nil.
func (s *shape) expand(theta32, drain []float32) {
	if s.compressed {
		fp16.RoundScatter(s.p.Value.Data(), theta32, s.ix.IDs(), drain)
	} else {
		fp16.RoundSlice(s.p.Value.Data(), theta32, drain)
	}
}

// shrink drops the pattern positions where keep (in stored pattern order) is
// false. A CSR weight compacts its CSR and re-heads p's Value and Grad; an
// index shape zeroes θ16's dropped coordinates, and those of every
// full-length vector in zero, then shrinks the index. The caller compacts
// pattern-sized state vectors.
func (s *shape) shrink(keep []bool, zero ...[]float32) {
	if s.p.CSR != nil {
		s.p.ShrinkPattern(keep)
		return
	}
	if s.ix == nil {
		panic(fmt.Sprintf("core: shrink of non-shrinkable parameter %s", s.p.Name))
	}
	ids := s.ix.IDs()
	zero = append(zero, s.p.Value.Data())
	for i, k := range keep {
		if !k {
			for _, v := range zero {
				v[ids[i]] = 0
			}
		}
	}
	s.ix.ShrinkTo(keep)
}

// fingerprint hashes a state's IMMUTABLE structure — mode, optimizer
// footprint, and per parameter its name and full (pattern-independent)
// size. Two states with equal fingerprints accept each other's checkpoints;
// the checkpoint manager stores it in the manifest so a resume against a
// different model, optimizer or storage mode is refused up front instead of
// failing byte by byte mid-load.
//
// The stored (pattern-dependent) length is deliberately NOT hashed: a
// gradual pruning schedule shrinks patterns mid-run, and a freshly rebuilt
// state (initial pattern) must accept a post-shrink checkpoint to recover.
// The pattern itself is serialized inside the snapshot and validated there.
func fingerprint(mode Mode, optBytes int, shapes []*shape) uint64 {
	h := fnv.New64a()
	var b [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putU64(uint64(mode))
	putU64(uint64(optBytes))
	for _, s := range shapes {
		h.Write([]byte(s.p.Name))
		putU64(uint64(s.full()))
	}
	return h.Sum64()
}

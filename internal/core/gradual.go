package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/sparse-dl/samo/internal/prune"
)

// In-training gradual magnitude pruning (Zhu & Gupta's cubic schedule,
// prune.Schedule) over a live ModelState. The defining constraint is that
// NNZ only ever DECREASES: every prune event compacts the existing storage
// in place — CSR patterns and their cached transposes, the shared indices,
// θ32/∇θ32, optimizer state vectors and the grad16 reduce-bucket
// slabs — so steady-state training between events stays allocation-free
// and no backing array is ever reallocated.
//
// Selection reads θ32 (the master weights). After the optimizer step that
// precedes an event every data-parallel replica holds bitwise-identical
// θ32 — the engine sequences events after the global overflow consensus —
// and θ32 trajectories are identical between SAMO and the masked-dense
// reference, so all replicas and both storage modes select the exact same
// survivors with no extra communication.

// shrinkOp names one parameter's keep mask for applyShrinks. keep is in
// stored pattern order (ascending dense-view id for index-compressed
// parameters, CSR order for pattern layers).
type shrinkOp struct {
	st   *paramState
	keep []bool
}

// applyShrinks compacts every storage layer onto the kept pattern
// positions, in place. Three parameter shapes exist:
//
//   - pattern-layer parameters (SparseLinear's Wv): the layer shrinks its
//     CSR structures and re-heads the parameter; the stored vectors and
//     optimizer state compact to the new pattern length;
//   - SAMO-compressed parameters: the index and every NNZ-length vector
//     compact, and dense θ16 zeroes the dropped coordinates;
//   - masked-dense parameters (pruned, Dense mode): storage stays
//     full-length; dropped coordinates are zeroed in θ16/θ32/optimizer
//     state and the index shrinks, keeping the reference bitwise equal to
//     SAMO.
//
// The grad16 bucket slabs compact last (compactBuckets) and the clip
// buffers re-alias the compacted ∇θ32 vectors.
func (ms *ModelState) applyShrinks(ops []shrinkOp) {
	segKeeps := make(map[*paramState][]bool, len(ops))
	for _, op := range ops {
		st, keep := op.st, op.keep
		if pl := ms.patterns[st.p]; pl != nil {
			pl.ShrinkPattern(keep)
		}
		switch {
		case st.compressed:
			ids := st.ix.IDs()
			d16 := st.p.Value.Data()
			for i, k := range keep {
				if !k {
					d16[ids[i]] = 0
				}
			}
			st.ix.ShrinkTo(keep)
			st.theta32 = compactKept32(st.p.Name, st.theta32, keep)
			st.grad32 = compactKept32(st.p.Name, st.grad32, keep)
			ms.opt.CompactState(st.p.Name, keep)
			segKeeps[st] = keep
		case st.ix != nil:
			ids := st.ix.IDs()
			d16 := st.p.Value.Data()
			for i, k := range keep {
				if !k {
					id := ids[i]
					d16[id] = 0
					st.theta32[id] = 0
					st.grad16[id] = 0
					for _, vec := range ms.opt.States(st.p.Name) {
						vec[id] = 0
					}
				}
			}
			st.ix.ShrinkTo(keep)
		default:
			if ms.patterns[st.p] == nil {
				panic(fmt.Sprintf("core: shrink of non-shrinkable parameter %s", st.p.Name))
			}
			st.theta32 = compactKept32(st.p.Name, st.theta32, keep)
			st.grad32 = compactKept32(st.p.Name, st.grad32, keep)
			ms.opt.CompactState(st.p.Name, keep)
			segKeeps[st] = keep
		}
	}
	ms.compactBuckets(segKeeps)
	for i, st := range ms.states {
		ms.clipBufs[i] = st.grad32
	}
}

// compactKept32 filters v to the kept positions in place and returns the
// shortened slice over the same backing array.
func compactKept32(name string, v []float32, keep []bool) []float32 {
	if len(v) != len(keep) {
		panic(fmt.Sprintf("core: %s vector %d vs keep mask %d", name, len(v), len(keep)))
	}
	w := 0
	for i, k := range keep {
		if k {
			v[w] = v[i]
			w++
		}
	}
	return v[:w]
}

// GradualPruner drives a prune.Schedule over a live ModelState. Call
// MaybePrune with the step index after each applied-or-skipped optimizer
// step; on non-event steps it is a comparison and a return (no allocation,
// preserving the zero-alloc steady state between events).
type GradualPruner struct {
	sched   prune.Schedule
	ms      *ModelState
	targets []*paramState // index-compressed, masked-dense or pattern-layer params
}

// NewGradualPruner validates the schedule and binds it to the state's
// shrinkable parameters. A state with none (e.g. an unpruned dense model,
// or a pipeline stage hosting only embeddings) is legal: MaybePrune is
// then a no-op — check Targets when that should be a configuration error.
func NewGradualPruner(ms *ModelState, sched prune.Schedule) (*GradualPruner, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	gp := &GradualPruner{sched: sched, ms: ms}
	for _, st := range ms.states {
		if st.ix != nil || ms.patterns[st.p] != nil {
			gp.targets = append(gp.targets, st)
		}
	}
	return gp, nil
}

// MaybePrune runs a prune event if step is one, returning whether any
// pattern shrank. Every event is a pure function of (step, θ32), so all
// data-parallel replicas shrink identically.
func (gp *GradualPruner) MaybePrune(step int) bool {
	if len(gp.targets) == 0 || !gp.sched.IsPruneEvent(step) {
		return false
	}
	target := gp.sched.SparsityAt(step)
	var ops []shrinkOp
	if gp.sched.Global {
		ops = gp.selectGlobal(target)
	} else {
		ops = gp.selectPerLayer(target)
	}
	if len(ops) == 0 {
		return false
	}
	gp.ms.applyShrinks(ops)
	return true
}

// storedNNZ returns a target's current pattern length.
func (gp *GradualPruner) storedNNZ(st *paramState) int {
	if st.ix != nil {
		return st.ix.NNZ()
	}
	return len(st.theta32)
}

// magnitudes returns a target's |θ32| bit-pattern keys in stored pattern
// order (gathered through the index for masked-dense parameters, whose
// θ32 is full-length). Allocation is fine here: this runs only at events.
func (gp *GradualPruner) magnitudes(st *paramState) []uint32 {
	var mags []uint32
	if st.ix != nil && !st.compressed {
		ids := st.ix.IDs()
		mags = make([]uint32, len(ids))
		for i, id := range ids {
			mags[i] = magBits(st.theta32[id])
		}
		return mags
	}
	mags = make([]uint32, len(st.theta32))
	for i, v := range st.theta32 {
		mags[i] = magBits(v)
	}
	return mags
}

// magBits is the IEEE-754 magnitude key shared with prune.maskSmallest: a
// total order over float32 magnitudes (−0 ties +0, NaN above +Inf, so NaN
// weights are kept, never silently pruned), giving bitwise-reproducible
// tie-breaks at the threshold.
func magBits(v float32) uint32 { return math.Float32bits(v) &^ (1 << 31) }

// selectPerLayer prunes each target down to the event's sparsity
// independently (the paper's uniform per-layer assumption).
func (gp *GradualPruner) selectPerLayer(target float64) []shrinkOp {
	var ops []shrinkOp
	for _, st := range gp.targets {
		full := gp.ms.fullSize(st)
		wantKept := full - int(target*float64(full))
		drop := gp.storedNNZ(st) - wantKept
		if drop <= 0 {
			continue
		}
		mags := gp.magnitudes(st)
		keys := make([]uint64, len(mags))
		for i, m := range mags {
			keys[i] = uint64(m)<<32 | uint64(uint32(i))
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		keep := make([]bool, len(mags))
		for i := range keep {
			keep[i] = true
		}
		for _, k := range keys[:drop] {
			keep[uint32(k)] = false
		}
		ops = append(ops, shrinkOp{st: st, keep: keep})
	}
	return ops
}

// selectGlobal pools every target into one magnitude ranking and prunes
// the globally smallest until the pooled sparsity hits the event's target.
// Ties break by (magnitude bits, target order, position) — the same
// total order as prune.MagnitudeGlobal.
func (gp *GradualPruner) selectGlobal(target float64) []shrinkOp {
	type cand struct {
		bits uint32
		ti   int32
		pos  int32
	}
	var cands []cand
	var fullTotal, nnzTotal int
	for ti, st := range gp.targets {
		fullTotal += gp.ms.fullSize(st)
		mags := gp.magnitudes(st)
		nnzTotal += len(mags)
		for i, m := range mags {
			cands = append(cands, cand{bits: m, ti: int32(ti), pos: int32(i)})
		}
	}
	wantKept := fullTotal - int(target*float64(fullTotal))
	drop := nnzTotal - wantKept
	if drop <= 0 {
		return nil
	}
	sort.Slice(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		if ca.bits != cb.bits {
			return ca.bits < cb.bits
		}
		if ca.ti != cb.ti {
			return ca.ti < cb.ti
		}
		return ca.pos < cb.pos
	})
	keeps := make([][]bool, len(gp.targets))
	for ti, st := range gp.targets {
		keep := make([]bool, gp.storedNNZ(st))
		for i := range keep {
			keep[i] = true
		}
		keeps[ti] = keep
	}
	dropped := make([]int, len(gp.targets))
	for _, c := range cands[:drop] {
		keeps[c.ti][c.pos] = false
		dropped[c.ti]++
	}
	var ops []shrinkOp
	for ti, st := range gp.targets {
		if dropped[ti] > 0 {
			ops = append(ops, shrinkOp{st: st, keep: keeps[ti]})
		}
	}
	return ops
}

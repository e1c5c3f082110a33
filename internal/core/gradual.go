package core

import (
	"math"
	"sort"

	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/sparse"
)

// In-training gradual magnitude pruning (Zhu & Gupta's cubic schedule,
// prune.Schedule) over a live ModelState. The defining constraint is that
// NNZ only ever DECREASES: every prune event compacts the existing storage
// in place — CSR patterns, the shared indices, θ32, optimizer state vectors
// and the ∇θ16 slab — so steady-state training between events stays
// allocation-free and no backing array is ever reallocated.
//
// Selection reads θ32 (the master weights). After the optimizer step that
// precedes an event every data-parallel replica holds bitwise-identical
// θ32 — the engine sequences events after the global overflow consensus —
// and θ32 trajectories are identical between SAMO and the masked-dense
// reference, so all replicas and both storage modes select the exact same
// survivors with no extra communication.

// shrinkOp names one parameter's keep mask for applyShrinks. keep is in
// stored pattern order: ascending dense-view id, for index-compressed
// parameters and CSR weights alike.
type shrinkOp struct {
	st   *paramState
	keep []bool
}

// applyShrinks compacts every storage layer onto the kept pattern
// positions, in place. The shape shrinks first (shape.shrink); then
// pattern-sized vectors — θ32 and optimizer state — compact to the new
// pattern length, while a masked-dense parameter's full-length vectors zero
// the dropped coordinates, keeping the reference bitwise equal to SAMO.
// The ∇θ16 slab compacts last (compactGrad).
func (ms *ModelState) applyShrinks(ops []shrinkOp) {
	segKeeps := make(map[*paramState][]bool, len(ops))
	for _, op := range ops {
		st, keep := op.st, op.keep
		if !st.patternSized() {
			st.shrink(keep, append([][]float32{st.theta32, st.grad16}, ms.opt.States(st.p.Name)...)...)
			continue
		}
		st.shrink(keep)
		st.theta32 = sparse.Compact(st.theta32, keep)
		ms.opt.CompactState(st.p.Name, keep)
		segKeeps[st] = keep
	}
	ms.compactGrad(segKeeps)
}

// compactGrad shrinks the ∇θ16 slab in place after a pattern shrink: every
// segment slides leftward inside the slab, in state order. segKeeps holds
// the keep mask of every parameter whose stored vectors compacted; the rest
// (untouched parameters, and masked-dense ones whose storage stays
// full-length) keep their length and only shift. Kept values move with
// their positions, so a shrink never corrupts captured gradients, and
// writes never pass reads because segments only shrink. No allocation
// happens here.
func (ms *ModelState) compactGrad(segKeeps map[*paramState][]bool) {
	w := 0
	for _, st := range ms.states {
		seg, start := st.grad16, w
		if keep, ok := segKeeps[st]; ok {
			for i, k := range keep {
				if k {
					ms.grad[w] = seg[i]
					w++
				}
			}
		} else {
			w += copy(ms.grad[w:], seg)
		}
		st.grad16 = ms.grad[start:w:w]
	}
	ms.grad = ms.grad[:w]
}

// GradualPruner drives a prune.Schedule over a live ModelState. Call
// MaybePrune with the step index after each applied-or-skipped optimizer
// step; on non-event steps it is a comparison and a return (no allocation,
// preserving the zero-alloc steady state between events).
type GradualPruner struct {
	sched   prune.Schedule
	ms      *ModelState
	targets []*paramState // index-compressed, masked-dense or CSR-weight params
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
		if st.shrinkable() {
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

// magnitudes returns a target's |θ32| bit-pattern keys in stored pattern
// order. Allocation is fine here: this runs only at events.
func magnitudes(st *paramState) []uint32 {
	vals := st.patternOf(st.theta32)
	mags := make([]uint32, len(vals))
	for i, v := range vals {
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
		full := st.full()
		wantKept := full - int(target*float64(full))
		drop := st.nnz() - wantKept
		if drop <= 0 {
			continue
		}
		mags := magnitudes(st)
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
// Ties break by (magnitude bits, target order, position).
func (gp *GradualPruner) selectGlobal(target float64) []shrinkOp {
	type cand struct {
		bits uint32
		ti   int32
		pos  int32
	}
	var cands []cand
	var fullTotal, nnzTotal int
	for ti, st := range gp.targets {
		fullTotal += st.full()
		mags := magnitudes(st)
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
		keep := make([]bool, st.nnz())
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

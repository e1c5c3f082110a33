package nn

import (
	"fmt"
	"math"

	"github.com/sparse-dl/samo/internal/parallel"
	"github.com/sparse-dl/samo/internal/tensor"
)

// CausalSelfAttention is multi-head scaled-dot-product attention with a
// causal mask — the attention of GPT-style decoders. Input and output are
// (batch·seq, d) with the sequence length fixed at construction (static
// shapes keep the pipeline engine's message sizes constant, as in AxoNN).
type CausalSelfAttention struct {
	Wqkv, Bqkv   *Param // (d, 3d), (3d)
	Wproj, Bproj *Param // (d, d), (d)
	d, heads, dh int
	seq          int
}

// NewCausalSelfAttention creates an attention layer with d model dims and
// the given head count over sequences of length seq.
func NewCausalSelfAttention(name string, d, heads, seq int, rng *tensor.RNG) *CausalSelfAttention {
	if d%heads != 0 {
		panic(fmt.Sprintf("nn: d=%d not divisible by heads=%d", d, heads))
	}
	a := &CausalSelfAttention{
		Wqkv:  newParam(name+".wqkv", d, 3*d),
		Bqkv:  newParam(name+".bqkv", 3*d),
		Wproj: newParam(name+".wproj", d, d),
		Bproj: newParam(name+".bproj", d),
		d:     d, heads: heads, dh: d / heads, seq: seq,
	}
	tensor.FillXavier(a.Wqkv.Value, d, 3*d, rng)
	tensor.FillXavier(a.Wproj.Value, d, d, rng)
	return a
}

type attnCache struct {
	x     *tensor.Tensor // (B·T, d)
	qkv   *tensor.Tensor // (B·T, 3d)
	probs *tensor.Tensor // (B·H·T·T) softmax rows
	heads *tensor.Tensor // (B·T, d) concatenated head outputs
	batch int
}

var attnCaches parallel.Pool[attnCache]

// attnJob carries one attention pass's state to the worker pool. Forward
// and backward both fan out over (batch, head) pairs through parallel.Run
// with a pooled job instead of a closure — the per-head loops run once per
// microbatch, and a closure there was one of the last per-step allocations
// on the GPT path.
type attnJob struct {
	qd, probs, hd, dqd []float32
	T, H, dh, d        int
	scale              float32
}

var attnJobFree parallel.Pool[attnJob]

// attnScratch is one chunk's scratch: the transposed keys (forward) or
// values (backward) of the (batch, head) pair it is on, dh rows of T, and
// the backward's dp row. Recycled through a pool so chunks allocate nothing
// in steady state.
type attnScratch struct{ t, dp []float32 }

var attnScratchFree parallel.Pool[attnScratch]

func getAttnScratch(T, dh int) *attnScratch {
	s := attnScratchFree.Get()
	if cap(s.t) < T*dh {
		s.t = make([]float32, T*dh)
	}
	if cap(s.dp) < T {
		s.dp = make([]float32, T)
	}
	s.t, s.dp = s.t[:T*dh], s.dp[:T]
	return s
}

// transposeHead writes the dh columns of T rows stride floats apart (one
// head's keys or values) into t as dh rows of T: t[c·T + j] = rows[j·stride
// + c]. tensor.DotsInto then reads each coordinate of every key contiguously.
func transposeHead(t, rows []float32, T, dh, stride int) {
	rows = rows[:(T-1)*stride+dh]
	for c := 0; c < dh; c++ {
		tc := t[c*T : c*T+T]
		for j := range tc {
			tc[j] = rows[j*stride+c]
		}
	}
}

// keyBlock is how many scores row i computes: its i+1 causal keys rounded
// up to whole 8-key groups, so tensor.DotsInto runs them in its vector body;
// the scores past i are overwritten (forward) or never read (backward).
func keyBlock(i, T int) int { return min((i+8)&^7, T) }

// Forward computes attention over x of shape (batch·seq, d). The per-head
// score/softmax/value loop runs in parallel over (batch, head) pairs on the
// shared worker pool — each pair touches disjoint slices of probs and
// disjoint columns of the head output — in chunks sized from a pair's
// T·(T+1)·dh causal score and value multiply-adds (parallel.WorkGrain).
func (a *CausalSelfAttention) Forward(ar *tensor.Arena, x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	if x.Rank() != 2 || x.Dim(1) != a.d || x.Dim(0)%a.seq != 0 {
		panic(fmt.Sprintf("nn: attention(d=%d,seq=%d) got %v", a.d, a.seq, x.Shape()))
	}
	batch := x.Dim(0) / a.seq
	T, H, dh := a.seq, a.heads, a.dh

	qkv := ar.Get(x.Dim(0), 3*a.d)
	tensor.MatMulInto(qkv, x, a.Wqkv.Value, false)
	tensor.AddBias(qkv, a.Bqkv.Value)

	probsT := ar.Get(batch * H * T * T)
	headsOut := ar.GetZeroed(batch*T, a.d)
	j := attnJobFree.Get()
	j.qd, j.probs, j.hd = qkv.Data(), probsT.Data(), headsOut.Data()
	j.T, j.H, j.dh, j.d = T, H, dh, a.d
	j.scale = float32(1 / math.Sqrt(float64(dh)))
	parallel.Run(batch*H, parallel.WorkGrain(1, T*(T+1)*dh), j, attnForwardChunk)
	j.qd, j.probs, j.hd, j.dqd = nil, nil, nil, nil
	attnJobFree.Put(j)

	y := ar.Get(batch*T, a.d)
	tensor.MatMulInto(y, headsOut, a.Wproj.Value, false)
	tensor.AddBias(y, a.Bproj.Value)
	if !train {
		return y, nil
	}
	c := attnCaches.Get()
	c.x, c.qkv, c.probs, c.heads, c.batch = x, qkv, probsT, headsOut, batch
	return y, c
}

// Backward propagates through projection, attention weights and the QKV
// projection, accumulating all four parameter gradients. The per-head loop
// parallelizes over (batch, head): every write — dQKV column bands, probs
// slices — is disjoint across pairs.
func (a *CausalSelfAttention) Backward(ar *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	c := cache.(*attnCache)
	batch, T, H, dh := c.batch, a.seq, a.heads, a.dh
	stride := 3 * a.d
	scale := float32(1 / math.Sqrt(float64(dh)))
	d := a.d

	// Projection backward (gradients accumulate into the Param tensors).
	tensor.TMatMulInto(a.Wproj.Grad, c.heads, gradOut, true)
	tensor.SumRowsInto(a.Bproj.Grad, gradOut, true)
	dHeads := ar.Get(batch*T, a.d)
	tensor.MatMulTInto(dHeads, gradOut, a.Wproj.Value, false)

	dQKV := ar.GetZeroed(batch*T, stride)

	j := attnJobFree.Get()
	j.qd, j.probs, j.hd, j.dqd = c.qkv.Data(), c.probs.Data(), dHeads.Data(), dQKV.Data()
	j.T, j.H, j.dh, j.d = T, H, dh, d
	j.scale = scale
	parallel.Run(batch*H, parallel.WorkGrain(1, 2*T*(T+1)*dh), j, attnBackwardChunk)
	j.qd, j.probs, j.hd, j.dqd = nil, nil, nil, nil
	attnJobFree.Put(j)

	// QKV projection backward.
	tensor.TMatMulInto(a.Wqkv.Grad, c.x, dQKV, true)
	tensor.SumRowsInto(a.Bqkv.Grad, dQKV, true)
	dx := ar.Get(batch*T, a.d)
	tensor.MatMulTInto(dx, dQKV, a.Wqkv.Value, false)
	c.x, c.qkv, c.probs, c.heads = nil, nil, nil, nil
	attnCaches.Put(c)
	return dx
}

// Params returns the QKV and output-projection parameters.
func (a *CausalSelfAttention) Params() []*Param {
	return []*Param{a.Wqkv, a.Bqkv, a.Wproj, a.Bproj}
}

// attnForwardChunk computes scores, causal softmax and head outputs for
// (batch, head) pairs [lo,hi). Each pair touches disjoint slices of probs
// and disjoint columns of the head output. Per query row the scores are one
// tensor.DotsInto over the pair's transposed keys and the output one
// tensor.AddWeightedRows over its value rows (a zero probability skipped):
// the scalar loops' float32 sequence per element, in vector lanes.
func attnForwardChunk(ctx any, lo, hi int) {
	g := ctx.(*attnJob)
	qd, probs, hd := g.qd, g.probs, g.hd
	T, H, dh, d := g.T, g.H, g.dh, g.d
	scale := g.scale
	stride := 3 * d
	sc := getAttnScratch(T, dh)
	kt := sc.t
	for bh := lo; bh < hi; bh++ {
		b, h := bh/H, bh%H
		qOff := h * dh
		kOff := d + h*dh
		vOff := 2*d + h*dh
		pBase := bh * T * T
		rows := qd[b*T*stride:]
		transposeHead(kt, rows[kOff:], T, dh, stride)
		// scores + softmax row by row (causal: j <= i).
		for i := 0; i < T; i++ {
			qi := rows[i*stride+qOff : i*stride+qOff+dh]
			row := probs[pBase+i*T : pBase+i*T+T]
			tensor.DotsInto(row[:keyBlock(i, T)], qi, kt, T)
			maxv := float32(math.Inf(-1))
			for j := 0; j <= i; j++ {
				s := row[j] * scale
				row[j] = s
				if s > maxv {
					maxv = s
				}
			}
			tensor.ExpShifted(row[:i+1], maxv)
			var sum float64
			for _, e := range row[:i+1] {
				sum += float64(e)
			}
			tensor.ScaleSlice(row[:i+1], float32(1/sum))
			clear(row[i+1:])
			// out_i = Σ_j p_ij v_j
			oi := hd[(b*T+i)*d+h*dh : (b*T+i)*d+h*dh+dh]
			tensor.AddWeightedRows(oi, row[:i+1], rows[vOff:], stride)
		}
	}
	attnScratchFree.Put(sc)
}

// attnBackwardChunk propagates through attention weights for (batch, head)
// pairs [lo,hi): every write — dQKV column bands, probs slices — is
// disjoint across pairs. Per query row: dV += p·doᵀ and dK += ds·qᵀ are
// tensor.AddOuterRows, dp one tensor.DotsInto over the pair's transposed
// values, and dQ one tensor.AddWeightedRows over its keys (a zero ds
// skipped in both, as the scalar loop did).
func attnBackwardChunk(ctx any, lo, hi int) {
	g := ctx.(*attnJob)
	qd, probs, hd, dqd := g.qd, g.probs, g.hd, g.dqd
	T, H, dh, d := g.T, g.H, g.dh, g.d
	scale := g.scale
	stride := 3 * d
	sc := getAttnScratch(T, dh)
	vt, dp := sc.t, sc.dp
	for bh := lo; bh < hi; bh++ {
		b, h := bh/H, bh%H
		qOff := h * dh
		kOff := d + h*dh
		vOff := 2*d + h*dh
		pBase := bh * T * T
		rows, drows := qd[b*T*stride:], dqd[b*T*stride:]
		transposeHead(vt, rows[vOff:], T, dh, stride)
		for i := 0; i < T; i++ {
			do := hd[(b*T+i)*d+h*dh : (b*T+i)*d+h*dh+dh]
			row := probs[pBase+i*T : pBase+i*T+i+1]
			// dV_j += p_ij * do ; dp_ij = do · v_j
			tensor.AddOuterRows(drows[vOff:], stride, row, do, false)
			tensor.DotsInto(dp[:keyBlock(i, T)], do, vt, T)
			// Softmax backward: ds_j = p_j (dp_j - Σ_k p_k dp_k), into dp.
			var dot float32
			for j, p := range row {
				dot += p * dp[j]
			}
			ds := dp[:i+1]
			for j, p := range row {
				ds[j] = p * (ds[j] - dot) * scale
			}
			qi := rows[i*stride+qOff : i*stride+qOff+dh]
			dqi := drows[i*stride+qOff : i*stride+qOff+dh]
			tensor.AddWeightedRows(dqi, ds, rows[kOff:], stride)
			tensor.AddOuterRows(drows[kOff:], stride, ds, qi, true)
		}
	}
	attnScratchFree.Put(sc)
}

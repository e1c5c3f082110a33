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

// attnScratch is the per-chunk dp row buffer of the backward pass,
// recycled through a pool so backward chunks allocate nothing in steady
// state.
type attnScratch struct{ dp []float32 }

var attnScratchFree parallel.Pool[attnScratch]

func getAttnScratch(n int) *attnScratch {
	s := attnScratchFree.Get()
	if cap(s.dp) < n {
		s.dp = make([]float32, n)
	}
	s.dp = s.dp[:n]
	return s
}

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
// and disjoint columns of the head output.
func attnForwardChunk(ctx any, lo, hi int) {
	g := ctx.(*attnJob)
	qd, probs, hd := g.qd, g.probs, g.hd
	T, H, dh, d := g.T, g.H, g.dh, g.d
	scale := g.scale
	stride := 3 * d
	for bh := lo; bh < hi; bh++ {
		b, h := bh/H, bh%H
		qOff := h * dh
		kOff := d + h*dh
		vOff := 2*d + h*dh
		pBase := bh * T * T
		// scores + softmax row by row (causal: j <= i).
		for i := 0; i < T; i++ {
			qi := qd[(b*T+i)*stride+qOff : (b*T+i)*stride+qOff+dh]
			row := probs[pBase+i*T : pBase+i*T+T]
			maxv := float32(math.Inf(-1))
			for j := 0; j <= i; j++ {
				kj := qd[(b*T+j)*stride+kOff : (b*T+j)*stride+kOff+dh]
				var s float32
				for c := 0; c < dh; c++ {
					s += qi[c] * kj[c]
				}
				s *= scale
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
			inv := float32(1 / sum)
			for j := 0; j <= i; j++ {
				row[j] *= inv
			}
			for j := i + 1; j < T; j++ {
				row[j] = 0
			}
			// out_i = Σ_j p_ij v_j
			oi := hd[(b*T+i)*d+h*dh : (b*T+i)*d+h*dh+dh]
			for j := 0; j <= i; j++ {
				p := row[j]
				if p == 0 {
					continue
				}
				vj := qd[(b*T+j)*stride+vOff : (b*T+j)*stride+vOff+dh]
				for c := 0; c < dh; c++ {
					oi[c] += p * vj[c]
				}
			}
		}
	}
}

// attnBackwardChunk propagates through attention weights for (batch, head)
// pairs [lo,hi): every write — dQKV column bands, probs slices — is
// disjoint across pairs.
func attnBackwardChunk(ctx any, lo, hi int) {
	g := ctx.(*attnJob)
	qd, probs, hd, dqd := g.qd, g.probs, g.hd, g.dqd
	T, H, dh, d := g.T, g.H, g.dh, g.d
	scale := g.scale
	stride := 3 * d
	sc := getAttnScratch(T)
	dp := sc.dp
	for bh := lo; bh < hi; bh++ {
		b, h := bh/H, bh%H
		qOff := h * dh
		kOff := d + h*dh
		vOff := 2*d + h*dh
		pBase := bh * T * T
		for i := 0; i < T; i++ {
			do := hd[(b*T+i)*d+h*dh : (b*T+i)*d+h*dh+dh]
			row := probs[pBase+i*T : pBase+i*T+T]
			// dV_j += p_ij * do ; dp_ij = do · v_j
			for j := 0; j <= i; j++ {
				p := row[j]
				vj := qd[(b*T+j)*stride+vOff : (b*T+j)*stride+vOff+dh]
				dvj := dqd[(b*T+j)*stride+vOff : (b*T+j)*stride+vOff+dh]
				var s float32
				for cc := 0; cc < dh; cc++ {
					dvj[cc] += p * do[cc]
					s += do[cc] * vj[cc]
				}
				dp[j] = s
			}
			// Softmax backward: ds_j = p_j (dp_j - Σ_k p_k dp_k).
			var dot float32
			for j := 0; j <= i; j++ {
				dot += row[j] * dp[j]
			}
			qi := qd[(b*T+i)*stride+qOff : (b*T+i)*stride+qOff+dh]
			dqi := dqd[(b*T+i)*stride+qOff : (b*T+i)*stride+qOff+dh]
			for j := 0; j <= i; j++ {
				ds := row[j] * (dp[j] - dot) * scale
				if ds == 0 {
					continue
				}
				kj := qd[(b*T+j)*stride+kOff : (b*T+j)*stride+kOff+dh]
				dkj := dqd[(b*T+j)*stride+kOff : (b*T+j)*stride+kOff+dh]
				for cc := 0; cc < dh; cc++ {
					dqi[cc] += ds * kj[cc]
					dkj[cc] += ds * qi[cc]
				}
			}
		}
	}
	attnScratchFree.Put(sc)
}

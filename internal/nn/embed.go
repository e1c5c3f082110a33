package nn

import (
	"fmt"

	"github.com/sparse-dl/samo/internal/parallel"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Embedding maps token ids to learned vectors and adds learned positional
// embeddings — the input stage of a GPT model. Token ids travel inside a
// float32 tensor of shape (batch·seq, 1) (exact for any realistic vocab),
// which lets the pipeline engine treat every stage boundary uniformly as a
// tensor message.
type Embedding struct {
	Tok, Pos *Param // (vocab, d), (seq, d)
	vocab    int
	seq      int
	d        int
}

// NewEmbedding creates token + positional embedding tables with N(0, 0.02²)
// init (the GPT-2/3 convention).
func NewEmbedding(name string, vocab, seq, d int, rng *tensor.RNG) *Embedding {
	e := &Embedding{
		Tok:   newParam(name+".tok", vocab, d),
		Pos:   newParam(name+".pos", seq, d),
		vocab: vocab, seq: seq, d: d,
	}
	e.Tok.NoPrune = true
	e.Pos.NoPrune = true
	tensor.FillNormal(e.Tok.Value, 0.02, rng)
	tensor.FillNormal(e.Pos.Value, 0.02, rng)
	return e
}

// TokensToTensor packs integer token ids into the (n, 1) tensor format the
// Embedding layer accepts.
func TokensToTensor(tokens []int) *tensor.Tensor {
	t := tensor.New(len(tokens), 1)
	for i, tok := range tokens {
		t.Data()[i] = float32(tok)
	}
	return t
}

type embedCache struct{ ids []int }

var embedCaches parallel.Pool[embedCache]

// Forward looks up token and positional vectors.
func (e *Embedding) Forward(a *tensor.Arena, x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	if !train {
		return e.Infer(a, x), nil
	}
	if x.Rank() != 2 || x.Dim(1) != 1 || x.Dim(0)%e.seq != 0 {
		panic(fmt.Sprintf("nn: Embedding(seq=%d) got %v", e.seq, x.Shape()))
	}
	n := x.Dim(0)
	c := embedCaches.Get()
	if cap(c.ids) < n {
		c.ids = make([]int, n)
	}
	c.ids = c.ids[:n]
	ids := c.ids
	y := a.Get(n, e.d)
	tok, pos := e.Tok.Value.Data(), e.Pos.Value.Data()
	for i := 0; i < n; i++ {
		id := int(x.Data()[i])
		if id < 0 || id >= e.vocab {
			panic(fmt.Sprintf("nn: token id %d out of vocab %d", id, e.vocab))
		}
		ids[i] = id
		p := i % e.seq
		row := y.Data()[i*e.d : (i+1)*e.d]
		tv := tok[id*e.d : (id+1)*e.d]
		pv := pos[p*e.d : (p+1)*e.d]
		for j := range row {
			row[j] = tv[j] + pv[j]
		}
	}
	return y, c
}

// Infer looks up token and positional vectors without recording the id
// list (only Backward's scatter-add needs it), so the inference forward
// touches no cache pool.
func (e *Embedding) Infer(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != 1 || x.Dim(0)%e.seq != 0 {
		panic(fmt.Sprintf("nn: Embedding(seq=%d) got %v", e.seq, x.Shape()))
	}
	n := x.Dim(0)
	y := a.Get(n, e.d)
	tok, pos := e.Tok.Value.Data(), e.Pos.Value.Data()
	for i := 0; i < n; i++ {
		id := int(x.Data()[i])
		if id < 0 || id >= e.vocab {
			panic(fmt.Sprintf("nn: token id %d out of vocab %d", id, e.vocab))
		}
		row := y.Data()[i*e.d : (i+1)*e.d]
		tv := tok[id*e.d : (id+1)*e.d]
		pv := pos[(i%e.seq)*e.d : (i%e.seq+1)*e.d]
		for j := range row {
			row[j] = tv[j] + pv[j]
		}
	}
	return y
}

// CheckIDs returns an error unless every element of x is a token id this
// table holds: an integer in [0, vocab). A forward panics on a NaN or an
// out-of-vocab id and truncates a fractional one, so a server checks a
// sample with it before batching the sample with others.
func (e *Embedding) CheckIDs(x *tensor.Tensor) error {
	for _, v := range x.Data() {
		if !(v >= 0 && v < float32(e.vocab) && v == float32(int(v))) {
			return fmt.Errorf("nn: token id %v is not an integer in [0, %d)", v, e.vocab)
		}
	}
	return nil
}

// Backward scatter-adds gradients into the embedding tables. The returned
// input gradient is zero-shaped (token ids are not differentiable) but keeps
// the pipeline's gradient message chain intact.
func (e *Embedding) Backward(a *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	c := cache.(*embedCache)
	dTok, dPos := e.Tok.Grad.Data(), e.Pos.Grad.Data()
	for i, id := range c.ids {
		g := gradOut.Data()[i*e.d : (i+1)*e.d]
		tv := dTok[id*e.d : (id+1)*e.d]
		pv := dPos[(i%e.seq)*e.d : (i%e.seq+1)*e.d]
		for j := range g {
			tv[j] += g[j]
			pv[j] += g[j]
		}
	}
	dx := a.GetZeroed(len(c.ids), 1)
	embedCaches.Put(c)
	return dx
}

// Params returns the token and positional tables.
func (e *Embedding) Params() []*Param { return []*Param{e.Tok, e.Pos} }

// TransformerBlock is a pre-LayerNorm GPT block:
//
//	h = x + Attn(LN1(x));  y = h + W2·GELU(W1·LN2(h)).
//
// It is a single Layer so that AxoNN's inter-layer partitioning operates on
// whole blocks, matching how the paper's models are split across GPUs.
type TransformerBlock struct {
	LN1  *LayerNorm
	Attn *CausalSelfAttention
	LN2  *LayerNorm
	FC1  *Linear // (d, 4d)
	FC2  *Linear // (4d, d)
}

// NewTransformerBlock builds a block with the standard 4× MLP expansion.
func NewTransformerBlock(name string, d, heads, seq int, rng *tensor.RNG) *TransformerBlock {
	return &TransformerBlock{
		LN1:  NewLayerNorm(name+".ln1", d),
		Attn: NewCausalSelfAttention(name+".attn", d, heads, seq, rng),
		LN2:  NewLayerNorm(name+".ln2", d),
		FC1:  NewLinear(name+".fc1", d, 4*d, rng),
		FC2:  NewLinear(name+".fc2", 4*d, d, rng),
	}
}

type blockCache struct {
	cLN1, cAttn, cLN2, cFC1, cGELU, cFC2 any
}

var blockCaches parallel.Pool[blockCache]

// Forward runs attention and MLP sublayers with residual connections.
func (t *TransformerBlock) Forward(a *tensor.Arena, x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	u, cLN1 := t.LN1.Forward(a, x, train)
	att, cAttn := t.Attn.Forward(a, u, train)
	h := a.Get(x.Shape()...)
	h.CopyFrom(x)
	tensor.Add(h, att)

	v, cLN2 := t.LN2.Forward(a, h, train)
	m1, cFC1 := t.FC1.Forward(a, v, train)
	var g GELULayer
	m2, cGELU := g.Forward(a, m1, train)
	m3, cFC2 := t.FC2.Forward(a, m2, train)
	y := a.Get(h.Shape()...)
	y.CopyFrom(h)
	tensor.Add(y, m3)
	if !train {
		return y, nil
	}
	c := blockCaches.Get()
	c.cLN1, c.cAttn, c.cLN2, c.cFC1, c.cGELU, c.cFC2 = cLN1, cAttn, cLN2, cFC1, cGELU, cFC2
	return y, c
}

// Backward reverses both sublayers, summing residual gradients.
func (t *TransformerBlock) Backward(a *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	c := cache.(*blockCache)
	// MLP path.
	g := t.FC2.Backward(a, c.cFC2, gradOut)
	var gl GELULayer
	g = gl.Backward(a, c.cGELU, g)
	g = t.FC1.Backward(a, c.cFC1, g)
	g = t.LN2.Backward(a, c.cLN2, g)
	dh := a.Get(gradOut.Shape()...)
	dh.CopyFrom(gradOut)
	tensor.Add(dh, g)
	// Attention path.
	g = t.Attn.Backward(a, c.cAttn, dh)
	g = t.LN1.Backward(a, c.cLN1, g)
	dx := a.Get(dh.Shape()...)
	dx.CopyFrom(dh)
	tensor.Add(dx, g)
	c.cLN1, c.cAttn, c.cLN2, c.cFC1, c.cGELU, c.cFC2 = nil, nil, nil, nil, nil, nil
	blockCaches.Put(c)
	return dx
}

// Params returns all block parameters.
func (t *TransformerBlock) Params() []*Param {
	ps := append(t.LN1.Params(), t.Attn.Params()...)
	ps = append(ps, t.LN2.Params()...)
	ps = append(ps, t.FC1.Params()...)
	ps = append(ps, t.FC2.Params()...)
	return ps
}

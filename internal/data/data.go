// Package data provides the deterministic synthetic datasets that stand in
// for the paper's corpora (Wikitext-103 and BookCorpus) and image sets. The
// statistical-efficiency experiment (Figure 4) only needs a stationary
// learnable distribution — it checks that pruned+SAMO training converges
// like dense training, not what it converges to — so a Markov token source
// with Zipfian unigrams captures everything that matters: a skewed vocabulary
// and learnable short-range structure.
package data

import (
	"fmt"
	"math"

	"github.com/sparse-dl/samo/internal/axonn"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Corpus is a deterministic synthetic token stream.
type Corpus struct {
	Name   string
	Vocab  int
	tokens []int
}

// SynthText builds a corpus of n tokens over the given vocabulary from a
// first-order Markov chain whose rows are Zipf-distributed with
// state-dependent offsets — natural-language-like skew plus bigram structure
// a language model can learn.
func SynthText(name string, vocab, n int, seed uint64) *Corpus {
	if vocab < 2 || n < 1 {
		panic(fmt.Sprintf("data: bad corpus spec vocab=%d n=%d", vocab, n))
	}
	rng := tensor.NewRNG(seed)
	// Zipf CDF over the vocabulary.
	weights := make([]float64, vocab)
	var total float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 1.1)
		total += weights[i]
	}
	cdf := make([]float64, vocab)
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cdf[i] = acc
	}
	sample := func(u float64) int {
		lo, hi := 0, vocab-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	tokens := make([]int, n)
	prev := 0
	for i := range tokens {
		// Mixture: mostly Zipf draws (skewed marginal), sometimes the
		// deterministic successor of the previous token (learnable bigram
		// structure that lowers the achievable perplexity well below the
		// unigram entropy).
		var t int
		if rng.Float64() < 0.35 {
			t = (prev*7 + 3) % vocab
		} else {
			t = sample(rng.Float64())
		}
		tokens[i] = t
		prev = t
	}
	return &Corpus{Name: name, Vocab: vocab, tokens: tokens}
}

// Tokens returns the raw stream (not to be modified).
func (c *Corpus) Tokens() []int { return c.tokens }

// LMBatch cuts `samples` sequences of length seq starting at cursor and
// returns the axonn.Batch with next-token targets, plus the advanced cursor
// (wrapping). Target of the final position of each sample is the following
// token in the stream.
func (c *Corpus) LMBatch(cursor, samples, seq int) (axonn.Batch, int) {
	need := seq + 1
	toks := make([]int, 0, samples*seq)
	targets := make([]int, 0, samples*seq)
	for s := 0; s < samples; s++ {
		if cursor+need >= len(c.tokens) {
			cursor = 0
		}
		window := c.tokens[cursor : cursor+need]
		toks = append(toks, window[:seq]...)
		targets = append(targets, window[1:]...)
		cursor += seq
	}
	return axonn.Batch{
		Input:      nn.TokensToTensor(toks),
		Targets:    targets,
		SampleRows: seq,
		Samples:    samples,
	}, cursor
}

// ImageSet is a deterministic synthetic labeled image collection: each class
// is a distinct smooth template plus noise, linearly separable enough for a
// small CNN to learn quickly.
type ImageSet struct {
	Name      string
	Classes   int
	C, H, W   int
	templates []*tensor.Tensor
	rng       *tensor.RNG
}

// SynthImages builds an image set with the given geometry.
func SynthImages(name string, classes, c, h, w int, seed uint64) *ImageSet {
	rng := tensor.NewRNG(seed)
	s := &ImageSet{Name: name, Classes: classes, C: c, H: h, W: w, rng: rng}
	for k := 0; k < classes; k++ {
		t := tensor.New(c, h, w)
		fx := float64(k%3 + 1)
		fy := float64(k/3 + 1)
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					v := math.Sin(fx*float64(x)/float64(w)*math.Pi+float64(ch)) *
						math.Cos(fy*float64(y)/float64(h)*math.Pi)
					t.Set(float32(v), ch, y, x)
				}
			}
		}
		s.templates = append(s.templates, t)
	}
	return s
}

// Batch draws n labeled images (template + Gaussian noise).
func (s *ImageSet) Batch(n int) (axonn.Batch, []int) {
	x := tensor.New(n, s.C, s.H, s.W)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		k := s.rng.Intn(s.Classes)
		labels[i] = k
		dst := x.Slice(i, i+1)
		dst.CopyFrom(s.templates[k].Reshape(1, s.C, s.H, s.W))
		for j := range dst.Data() {
			dst.Data()[j] += float32(s.rng.Norm()) * 0.3
		}
	}
	return axonn.Batch{Input: x, Targets: labels, SampleRows: 1, Samples: n}, labels
}

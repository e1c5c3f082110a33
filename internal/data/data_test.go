package data

import (
	"testing"
)

func TestSynthTextDeterministic(t *testing.T) {
	a := SynthText("a", 64, 1000, 5)
	b := SynthText("b", 64, 1000, 5)
	for i := range a.Tokens() {
		if a.Tokens()[i] != b.Tokens()[i] {
			t.Fatal("corpus not deterministic")
		}
	}
	c := SynthText("c", 64, 1000, 6)
	same := true
	for i := range a.Tokens() {
		if a.Tokens()[i] != c.Tokens()[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical corpora")
	}
}

func TestSynthTextTokenRange(t *testing.T) {
	c := SynthText("t", 32, 5000, 7)
	if n := len(c.Tokens()); n != 5000 {
		t.Errorf("%d tokens, want 5000", n)
	}
	for _, tok := range c.Tokens() {
		if tok < 0 || tok >= 32 {
			t.Fatalf("token %d out of vocab", tok)
		}
	}
}

func TestSynthTextSkewedDistribution(t *testing.T) {
	// The unigram distribution must be non-uniform (Zipf-like): the most
	// frequent token should appear far more often than the median one.
	c := SynthText("z", 50, 20000, 11)
	counts := make([]int, 50)
	for _, tok := range c.Tokens() {
		counts[tok]++
	}
	max, sum := 0, 0
	for _, n := range counts {
		if n > max {
			max = n
		}
		sum += n
	}
	if float64(max) < 2*float64(sum)/50 {
		t.Errorf("distribution looks uniform: max %d of %d", max, sum)
	}
}

func TestLMBatchShapesAndTargets(t *testing.T) {
	c := SynthText("lm", 40, 1000, 13)
	b, cur := c.LMBatch(0, 3, 8)
	if b.Samples != 3 || b.SampleRows != 8 {
		t.Fatalf("batch geometry: %+v", b)
	}
	if b.Input.Dim(0) != 24 || len(b.Targets) != 24 {
		t.Fatalf("batch sizes: input %v targets %d", b.Input.Shape(), len(b.Targets))
	}
	if cur != 24 {
		t.Errorf("cursor = %d, want 24", cur)
	}
	// Next-token property: target[i] == token stream at position i+1.
	for i := 0; i < 8; i++ {
		if b.Targets[i] != c.Tokens()[i+1] {
			t.Fatalf("target %d = %d, want %d", i, b.Targets[i], c.Tokens()[i+1])
		}
		if int(b.Input.At(i, 0)) != c.Tokens()[i] {
			t.Fatalf("input %d mismatch", i)
		}
	}
}

func TestLMBatchWrapsAround(t *testing.T) {
	c := SynthText("wrap", 16, 50, 17)
	cursor := 0
	for i := 0; i < 30; i++ {
		b, cur := c.LMBatch(cursor, 2, 8)
		cursor = cur
		if b.Input.Dim(0) != 16 {
			t.Fatal("wrapped batch wrong size")
		}
	}
}

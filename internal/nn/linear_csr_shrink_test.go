package nn

import (
	"reflect"
	"testing"

	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// TestShrinkPatternMatchesFreshLayer shrinks a live CSR weight in place and
// compares every structure bitwise against a layer built directly from the
// shrunk pattern: same CSR, same parameter values — and the same backing
// arrays as before the shrink.
func TestShrinkPatternMatchesFreshLayer(t *testing.T) {
	_, sl, _ := sparsePair(12, 9, 0.5, 31)
	nnz := sl.W.CSR.NNZ()
	keep := make([]bool, nnz)
	for i := range keep {
		keep[i] = i%3 != 0 // drop every third stored position
	}
	valHead := &sl.W.CSR.Val[0]

	// Fresh reference: a layer built from the already-shrunk pattern. The
	// stored ids are the (in, out) weight's own, as an index's are.
	var keptIDs []int32
	for i, id := range sl.W.CSR.LinearIDs() {
		if keep[i] {
			keptIDs = append(keptIDs, id)
		}
	}
	want := csrLinear(sl.W.CSR.Dense(), sparse.IndexFromSlice(keptIDs, 12*9))

	sl.W.ShrinkPattern(keep)

	if !reflect.DeepEqual(sl.W.CSR, want.W.CSR) {
		t.Fatal("shrunk CSR differs from freshly built layer")
	}
	if &sl.W.CSR.Val[0] != valHead {
		t.Fatal("ShrinkPattern reallocated CSR backing arrays")
	}
	if sl.W.Value.Len() != len(sl.W.CSR.Val) || &sl.W.Value.Data()[0] != &sl.W.CSR.Val[0] {
		t.Fatal("W.Value no longer aliases W.CSR.Val after shrink")
	}
	if sl.W.Grad.Len() != len(sl.W.CSR.Val) {
		t.Fatalf("W.Grad has %d entries after shrink, want %d", sl.W.Grad.Len(), len(sl.W.CSR.Val))
	}
}

// TestShrinkPatternGradientsTrackPattern is the staleness golden across a
// shrink: shrink the pattern between two forward/backward pairs and verify
// the output and the input gradient equal the dense reference computed from
// the SHRUNK weights — any structure left addressing the pre-shrink
// pattern would produce the old product.
func TestShrinkPatternGradientsTrackPattern(t *testing.T) {
	_, sl, _ := sparsePair(10, 8, 0.5, 41)
	x := tensor.New(4, 10)
	tensor.FillNormal(x, 1, tensor.NewRNG(42))
	gy := tensor.New(4, 8)
	tensor.FillNormal(gy, 1, tensor.NewRNG(43))

	// Run the pre-shrink pattern once.
	_, c := sl.Forward(nil, x, true)
	sl.Backward(nil, c, gy)

	keep := make([]bool, sl.W.CSR.NNZ())
	for i := range keep {
		keep[i] = i%2 == 0
	}
	sl.W.ShrinkPattern(keep)

	sl.W.Grad.Zero()
	sl.B.Grad.Zero()
	y, c := sl.Forward(nil, x, true)
	dx := sl.Backward(nil, c, gy)

	wantY := tensor.MatMul(x, sl.W.CSR.Dense())
	for i, b := range sl.B.Value.Data() {
		for r := 0; r < 4; r++ {
			wantY.Data()[r*8+i] += b
		}
	}
	if d := tensor.MaxAbsDiff(y, wantY); d > 1e-4 {
		t.Fatalf("forward after shrink differs from dense reference by %g", d)
	}
	wantDx := tensor.MatMulT(gy, sl.W.CSR.Dense())
	if d := tensor.MaxAbsDiff(dx, wantDx); d > 1e-4 {
		t.Fatalf("input gradient after shrink differs by %g — stale pattern", d)
	}
}

// TestShrinkPatternToEmpty drives the weight to a fully-pruned pattern and
// runs a forward/backward through it: outputs are bias-only, the input
// gradient is zero, nothing panics.
func TestShrinkPatternToEmpty(t *testing.T) {
	_, sl, _ := sparsePair(6, 5, 0.5, 51)
	sl.W.ShrinkPattern(make([]bool, sl.W.CSR.NNZ()))
	if sl.W.CSR.NNZ() != 0 || sl.W.Size() != 0 {
		t.Fatalf("NNZ = %d, parameter size %d after full shrink", sl.W.CSR.NNZ(), sl.W.Size())
	}
	if ids := sl.W.CSR.LinearIDs(); len(ids) != 0 {
		t.Fatalf("LinearIDs = %v, want empty", ids)
	}
	x := tensor.New(3, 6)
	tensor.FillNormal(x, 1, tensor.NewRNG(52))
	gy := tensor.New(3, 5)
	gy.Fill(1)
	y, c := sl.Forward(nil, x, true)
	for r := 0; r < 3; r++ {
		for j := 0; j < 5; j++ {
			if got, want := y.Data()[r*5+j], sl.B.Value.Data()[j]; got != want {
				t.Fatalf("y[%d,%d] = %g, want bias %g", r, j, got, want)
			}
		}
	}
	dx := sl.Backward(nil, c, gy)
	for i, v := range dx.Data() {
		if v != 0 {
			t.Fatalf("dx[%d] = %g through an empty pattern, want 0", i, v)
		}
	}
}

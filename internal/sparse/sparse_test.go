package sparse

import (
	"reflect"
	"testing"
	"testing/quick"

	"github.com/sparse-dl/samo/internal/tensor"
)

func TestMaskBasics(t *testing.T) {
	m := NewMask(130)
	if m.Count() != 0 {
		t.Fatal("fresh mask should be all pruned")
	}
	m.Set(0)
	m.Set(64)
	m.Set(129)
	if m.Count() != 3 {
		t.Errorf("Count = %d", m.Count())
	}
	if !m.Get(64) || m.Get(63) {
		t.Error("Get wrong")
	}
	m.Clear(64)
	if m.Get(64) || m.Count() != 2 {
		t.Error("Clear wrong")
	}
	idx := m.Indices()
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 129 {
		t.Errorf("Indices = %v", idx)
	}
}

func TestFullMask(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
		m := FullMask(n)
		if m.Count() != n {
			t.Errorf("FullMask(%d).Count() = %d", n, m.Count())
		}
	}
}

func TestMaskApply(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	m := FromIndices(4, []int32{1, 3})
	m.Apply(data)
	want := []float32{0, 2, 0, 4}
	for i := range want {
		if data[i] != want[i] {
			t.Fatalf("Apply: %v", data)
		}
	}
}

func TestHammingDistance(t *testing.T) {
	a := FromIndices(100, []int32{1, 2, 3})
	b := FromIndices(100, []int32{2, 3, 4})
	if d := HammingDistance(a, b); d != 0.02 {
		t.Errorf("HammingDistance = %g, want 0.02", d)
	}
	if HammingDistance(a, FromIndices(100, []int32{1, 2, 3})) != 0 {
		t.Error("self distance nonzero")
	}
}

func TestIndexRoundTripProperty(t *testing.T) {
	// expand(compress(x)) == mask(x) for any dense vector and mask.
	f := func(vals []float32, seed uint64) bool {
		if len(vals) == 0 {
			return true
		}
		rng := tensor.NewRNG(seed)
		m := NewMask(len(vals))
		for i := range vals {
			if rng.Float64() < 0.3 {
				m.Set(i)
			}
		}
		ix := NewIndex(m)
		comp := make([]float32, ix.NNZ())
		ix.Compress(comp, vals)
		dense := make([]float32, len(vals))
		ix.Expand(dense, comp)
		for i, v := range vals {
			want := float32(0)
			if m.Get(i) {
				want = v
			}
			if dense[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCompressExpandIdentityOnSupport(t *testing.T) {
	// compress(expand(c)) == c exactly, for any compressed vector.
	ix := IndexFromSlice([]int32{0, 3, 7, 8}, 10)
	c := []float32{1.5, -2, 3, 4}
	dense := make([]float32, 10)
	ix.Expand(dense, c)
	back := make([]float32, 4)
	ix.Compress(back, dense)
	for i := range c {
		if back[i] != c[i] {
			t.Fatalf("round trip: %v", back)
		}
	}
}

func TestIndexBytes(t *testing.T) {
	ix := IndexFromSlice([]int32{0, 5, 9}, 10)
	if ix.Bytes() != 12 {
		t.Errorf("Bytes = %d, want 12", ix.Bytes())
	}
}

func TestIndexValidation(t *testing.T) {
	for _, bad := range [][]int32{{3, 2}, {1, 1}, {-1}, {10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("IndexFromSlice(%v) should panic", bad)
				}
			}()
			IndexFromSlice(bad, 10)
		}()
	}
}

func randSparseTensor(rows, cols int, sparsity float64, seed uint64) *tensor.Tensor {
	t := tensor.New(rows, cols)
	rng := tensor.NewRNG(seed)
	for i := range t.Data() {
		if rng.Float64() >= sparsity {
			t.Data()[i] = float32(rng.Norm())
		}
	}
	return t
}

// CSRFromDense builds a CSR matrix from a dense (rows, cols) tensor,
// dropping exact zeros: the from-scratch construction the index-driven
// builders and the kernels' operands are checked against.
func CSRFromDense(t *tensor.Tensor) *CSR {
	if t.Rank() != 2 {
		panic("sparse: CSRFromDense requires rank 2")
	}
	rows, cols := t.Dim(0), t.Dim(1)
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	d := t.Data()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := d[i*cols+j]; v != 0 {
				m.ColIdx = append(m.ColIdx, int32(j))
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = int32(len(m.Val))
	}
	return m
}

func TestCSRDenseRoundTrip(t *testing.T) {
	a := randSparseTensor(13, 17, 0.9, 1)
	m := CSRFromDense(a)
	if d := tensor.MaxAbsDiff(m.Dense(), a); d != 0 {
		t.Errorf("CSR round trip diff %g", d)
	}
}

func TestSDDMMEqualsMaskedDense(t *testing.T) {
	pattern := randSparseTensor(12, 10, 0.8, 4)
	m := CSRFromDense(pattern)
	a := tensor.New(12, 6)
	b := tensor.New(10, 6)
	tensor.FillNormal(a, 1, tensor.NewRNG(5))
	tensor.FillNormal(b, 1, tensor.NewRNG(6))
	sampled := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: make([]float32, m.NNZ())}
	m.SDDMMInto(sampled.Val, a, b, false)
	got := sampled.Dense()
	full := tensor.MatMulT(a, b)
	// Mask the dense product to the pattern.
	for i := 0; i < 12; i++ {
		for j := 0; j < 10; j++ {
			if pattern.At(i, j) == 0 {
				full.Data()[i*10+j] = 0
			}
		}
	}
	if d := tensor.MaxAbsDiff(got, full); d > 1e-4 {
		t.Errorf("SDDMM diff %g", d)
	}
}

// TestCSRFromIndexMatchesFromDense pins CSRFromIndex, the index-driven
// builder of a pruned layer's CSR: its dense form is the matrix itself, its
// nonzeros are the index's ids in the index's order (what a SAMO state
// vector over the same matrix holds), its rows' columns ascend, and an
// indexed entry whose value is zero stays stored — the pattern is the
// index, not the values.
func TestCSRFromIndexMatchesFromDense(t *testing.T) {
	a := randSparseTensor(8, 6, 0.7, 7)
	mask := NewMask(a.Len())
	for i, v := range a.Data() {
		if v != 0 {
			mask.Set(i)
		}
	}
	ix := NewIndex(mask)
	a.Data()[ix.IDs()[0]] = 0 // an indexed zero
	m := CSRFromIndex(ix, a.Data(), 8, 6)
	if m.Rows != 8 || m.Cols != 6 || m.NNZ() != ix.NNZ() {
		t.Fatalf("CSRFromIndex is %dx%d with %d stored, want 8x6 with %d", m.Rows, m.Cols, m.NNZ(), ix.NNZ())
	}
	if d := tensor.MaxAbsDiff(m.Dense(), a); d != 0 {
		t.Errorf("CSRFromIndex mismatch %g", d)
	}
	if !reflect.DeepEqual(m.LinearIDs(), ix.IDs()) {
		t.Errorf("stored ids %v, index ids %v", m.LinearIDs(), ix.IDs())
	}
	comp := make([]float32, ix.NNZ())
	ix.Compress(comp, a.Data())
	if !reflect.DeepEqual(m.Val, comp) {
		t.Errorf("values %v, the index's compression %v", m.Val, comp)
	}
	for j := 0; j < m.Rows; j++ {
		for p := m.RowPtr[j] + 1; p < m.RowPtr[j+1]; p++ {
			if m.ColIdx[p] <= m.ColIdx[p-1] {
				t.Fatalf("row %d columns do not ascend: %v", j, m.ColIdx[m.RowPtr[j]:m.RowPtr[j+1]])
			}
		}
	}
}

// TestCSRTranspose pins transposeOf, the stored transpose the bitwise
// goldens hold the in-place input gradient to, against the from-scratch CSR
// of the dense transpose.
func TestCSRTranspose(t *testing.T) {
	a := randSparseTensor(9, 14, 0.8, 8)
	if got, want := transposeOf(CSRFromDense(a)), CSRFromDense(tensor.Transpose(a)); !reflect.DeepEqual(got, want) {
		t.Errorf("transposeOf = %+v, want %+v", got, want)
	}
}

func BenchmarkCompress(b *testing.B) {
	n := 1 << 16
	m := NewMask(n)
	rng := tensor.NewRNG(1)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.1 {
			m.Set(i)
		}
	}
	ix := NewIndex(m)
	dense := make([]float32, n)
	comp := make([]float32, ix.NNZ())
	b.SetBytes(int64(ix.NNZ() * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Compress(comp, dense)
	}
}

func BenchmarkExpand(b *testing.B) {
	n := 1 << 16
	m := NewMask(n)
	rng := tensor.NewRNG(1)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.1 {
			m.Set(i)
		}
	}
	ix := NewIndex(m)
	dense := make([]float32, n)
	comp := make([]float32, ix.NNZ())
	b.SetBytes(int64(n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Expand(dense, comp)
	}
}

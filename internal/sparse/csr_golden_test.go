package sparse

import (
	"fmt"
	"slices"
	"testing"

	"github.com/sparse-dl/samo/internal/tensor"
)

// randMaskedCSR builds a rows×cols CSR with ~density fraction of entries
// kept, values in (-1, 1), plus the dense tensor it represents.
func randMaskedCSR(rows, cols int, density float64, seed uint64) (*CSR, *tensor.Tensor) {
	rng := tensor.NewRNG(seed)
	d := tensor.New(rows, cols)
	dd := d.Data()
	for i := range dd {
		if rng.Float64() < density {
			v := float32(rng.Float64()*2 - 1)
			if v == 0 {
				v = 0.5 // keep the pattern: exact zeros would be dropped
			}
			dd[i] = v
		}
	}
	return CSRFromDense(d), d
}

// transposeOf is m's transpose as a CSR of its own, stored zeros kept: the
// reference TSpMMInto is held to, since SpMMᵀ over it sums the same chains.
// m's columns must ascend within each row.
func transposeOf(m *CSR) *CSR {
	rows, cols := int32(m.Rows), int32(m.Cols)
	ids := m.LinearIDs()
	for i, id := range ids {
		ids[i] = id%cols*rows + id/cols
	}
	slices.Sort(ids)
	return CSRFromIndex(IndexFromSlice(ids, m.Rows*m.Cols), tensor.Transpose(m.Dense()).Data(), m.Cols, m.Rows)
}

func randDense(rows, cols int, seed uint64) *tensor.Tensor {
	rng := tensor.NewRNG(seed)
	t := tensor.New(rows, cols)
	td := t.Data()
	for i := range td {
		td[i] = float32(rng.Float64()*2 - 1)
	}
	return t
}

// TestSDDMMGolden pins SDDMMInto against the dense reference: out values
// must equal (A·Bᵀ) sampled at the mask pattern, overwriting a dirty
// buffer, under both kernels — and, handed the batch-major Bᵀ as well, bit
// for bit the same values (the windowed kernel on the patterns at least a
// quarter dense and 32 columns wide).
func TestSDDMMGolden(t *testing.T) {
	for _, s := range [][3]int{{7, 9, 5}, {64, 48, 32}, {130, 65, 3}, {33, 129, 17}} {
		rows, cols, k := s[0], s[1], s[2]
		for _, density := range []float64{0.05, 0.3, 0.9} {
			t.Run(fmt.Sprintf("%dx%dx%d/d%.2f", rows, cols, k, density), func(t *testing.T) {
				m, _ := randMaskedCSR(rows, cols, density, uint64(rows*77+k))
				a := randDense(rows, k, uint64(rows))
				b := randDense(cols, k, uint64(cols))
				want := tensor.MatMulT(a, b) // (rows, cols) dense A·Bᵀ
				bT := tensor.Transpose(b)
				bothSparseKernels(t, func() {
					vals := make([]float32, m.NNZ())
					for p := range vals {
						vals[p] = 42
					}
					m.SDDMMInto(vals, a, b, false)
					for i := 0; i < m.Rows; i++ {
						for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
							w := want.At(i, int(m.ColIdx[p]))
							if d := vals[p] - w; d > 1e-4 || d < -1e-4 {
								t.Fatalf("SDDMMInto val (%d,%d): %g want %g", i, m.ColIdx[p], vals[p], w)
							}
						}
					}
					once := append([]float32(nil), vals...)
					win := make([]float32, m.NNZ())
					m.SDDMMInto(win, a, b, false, bT)
					if i, ok := bitwiseEqualSlice(win, once); !ok {
						t.Fatalf("SDDMMInto from Bᵀ (windowed=%v) differs at %d", m.sddmmWindowed(k), i)
					}
					// The accumulating form adds the same product on top.
					m.SDDMMInto(vals, a, b, true)
					m.SDDMMInto(win, a, b, true, bT)
					for p, v := range once {
						if vals[p] != 2*v || win[p] != 2*v {
							t.Fatalf("SDDMMInto(acc) at %d: %g and %g from Bᵀ, want %g", p, vals[p], win[p], 2*v)
						}
					}
				})
			})
		}
	}
}

// TestSpMMTGolden pins the transposed-CSR SpMM — C = B·Sᵀ, the product the
// sparse FC forward and input-gradient passes take — against the dense
// reference tensor.MatMulT(B, S_dense), over shapes crossing the row-grain
// chunking and degenerate n=1, from B and from Bᵀ, under both kernels.
func TestSpMMTGolden(t *testing.T) {
	for _, s := range [][3]int{{7, 9, 5}, {64, 48, 32}, {130, 65, 1}, {33, 129, 17}} {
		rows, cols, n := s[0], s[1], s[2]
		for _, density := range []float64{0.05, 0.3, 0.9} {
			t.Run(fmt.Sprintf("%dx%dx%d/d%.2f", rows, cols, n, density), func(t *testing.T) {
				m, dense := randMaskedCSR(rows, cols, density, uint64(rows*31+n))
				b := randDense(n, cols, uint64(cols+1))
				want := tensor.MatMulT(b, dense) // (n, rows)
				bothSparseKernels(t, func() {
					// A dirty buffer must be fully overwritten, from either
					// operand orientation.
					into := tensor.New(n, rows)
					into.Fill(42)
					m.SpMMTInto(into, b)
					if d := tensor.MaxAbsDiff(into, want); d > 1e-4 {
						t.Fatalf("SpMMTInto differs from dense by %g", d)
					}
					into.Fill(42)
					m.TSpMMTInto(into, tensor.Transpose(b))
					if d := tensor.MaxAbsDiff(into, want); d > 1e-4 {
						t.Fatalf("TSpMMTInto differs from dense by %g", d)
					}
				})
			})
		}
	}
}

// TestSpMMGolden pins the input-gradient SpMM — Cᵀ = Sᵀ·Bᵀ from Bᵀ, walked
// from S's rows in place (TSpMMInto) — against the dense reference
// tensor.MatMul(B, S_dense), over TestSpMMTGolden's shapes plus a batch of
// 91 = 48+32+8+3 that runs every vector block and the Go lanes, under both
// kernels; and bit for bit against the SpMMᵀ of a stored transpose, the chain
// it replaces. The sample-major T().SpMMTInto, which bench/ times, must give
// the same bits.
func TestSpMMGolden(t *testing.T) {
	for _, s := range [][3]int{{7, 9, 5}, {64, 48, 32}, {130, 65, 1}, {33, 129, 17}, {96, 80, 91}} {
		rows, cols, n := s[0], s[1], s[2]
		for _, density := range []float64{0.05, 0.3, 0.9} {
			t.Run(fmt.Sprintf("%dx%dx%d/d%.2f", rows, cols, n, density), func(t *testing.T) {
				m, dense := randMaskedCSR(rows, cols, density, uint64(rows*37+n))
				b := randDense(n, rows, uint64(rows+3))
				bt := tensor.Transpose(b)
				want := tensor.MatMul(b, dense) // (n, cols)
				stored := transposeOf(m)
				bothSparseKernels(t, func() {
					ct := tensor.New(cols, n)
					ct.Fill(42)
					m.TSpMMInto(ct, bt)
					c := tensor.Transpose(ct)
					if d := tensor.MaxAbsDiff(c, want); d > 1e-4 {
						t.Fatalf("TSpMMInto differs from dense by %g", d)
					}
					ref := tensor.New(n, cols)
					stored.TSpMMTInto(ref, bt)
					if i, ok := bitwiseEqualSlice(c.Data(), ref.Data()); !ok {
						t.Fatalf("TSpMMInto differs from the stored transpose's SpMMᵀ at %d", i)
					}
					view := tensor.New(n, cols)
					Transposed{m}.SpMMTInto(view, b)
					if i, ok := bitwiseEqualSlice(view.Data(), ref.Data()); !ok {
						t.Fatalf("Transposed.SpMMTInto differs from TSpMMInto at %d", i)
					}
				})
			})
		}
	}
}

// TestLinearIDs pins the structure helper the dense-masked materialization
// relies on: LinearIDs must be the strictly increasing row-major ids of the
// pattern (so it is a valid IndexFromSlice input whose Expand rebuilds
// Dense()).
func TestLinearIDs(t *testing.T) {
	m, _ := randMaskedCSR(23, 17, 0.3, 99)
	ids := m.LinearIDs()
	ix := IndexFromSlice(ids, m.Rows*m.Cols) // panics if not sorted unique
	back := tensor.New(m.Rows, m.Cols)
	ix.Expand(back.Data(), m.Val)
	if d := tensor.MaxAbsDiff(back, m.Dense()); d != 0 {
		t.Fatalf("LinearIDs scatter does not rebuild Dense(): diff %g", d)
	}
}

// TestCSRRowGrain sanity-checks the reasoned chunking: heavy rows shrink
// the grain toward 1, light rows grow it so a chunk still holds ~ixGrain
// scalar ops.
func TestCSRRowGrain(t *testing.T) {
	if g := csrRowGrain(100, 100*ixGrain); g != 1 {
		t.Errorf("heavy rows: grain %d, want 1", g)
	}
	if g := csrRowGrain(1000, 1000); g < 100 {
		t.Errorf("light rows: grain %d, want large", g)
	}
	if g := csrRowGrain(0, 0); g != 1 {
		t.Errorf("degenerate: grain %d, want 1", g)
	}
}

package sparse

import (
	"testing"

	"github.com/sparse-dl/samo/internal/tensor"
)

// The sparse fuzz targets drive the CSR kernel family against dense-masked
// MatMul references over fuzzer-chosen shapes and random masks, with the
// degenerate corners seeded (empty rows, zero nnz, (m,0)/(0,n) operands,
// fully dense patterns) and the parallel dispatch additionally pinned
// BITWISE across worker counts and across the Go and AVX2 kernels on every
// fuzzed case — the same equivalence-plus-determinism contract
// FuzzMatMulInto pins for the dense family. CI runs 10s smoke passes with
// the corpus cached.

// fuzzCSR builds a rows×cols CSR with a pseudo-random mask of roughly
// density/255 kept entries (0 → empty pattern, 255 → fully dense).
func fuzzCSR(rows, cols int, density uint8, seed uint64) (*CSR, *tensor.Tensor) {
	rng := tensor.NewRNG(seed | 1)
	d := tensor.New(rows, cols)
	dd := d.Data()
	for i := range dd {
		if rng.Float64()*255 < float64(density) {
			v := float32(rng.Float64()*2 - 1)
			if v == 0 {
				v = 0.5 // exact zeros would be dropped and change the pattern
			}
			dd[i] = v
		}
	}
	return CSRFromDense(d), d
}

func fuzzTol(k int) float64 { return 1e-5 * float64(k+1) }

// maxAbsDiffSlice is MaxAbsDiff for raw value slices (SDDMM outputs).
func maxAbsDiffSlice(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := float64(a[i] - b[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// FuzzSpMMTInto checks the transposed-CSR SpMM C = B·Sᵀ — the sparse FC
// forward product — against tensor.MatMulT(B, S_dense), and the SpMM
// Cᵀ = Sᵀ·Bᵀ the input gradient walks S's rows for (TSpMMInto) against
// tensor.MatMul(B, S_dense) transposed.
func FuzzSpMMTInto(f *testing.F) {
	f.Add(uint16(0), uint16(8), uint16(8), uint8(128), uint64(1))
	f.Add(uint16(8), uint16(0), uint16(8), uint8(128), uint64(2))
	f.Add(uint16(8), uint16(8), uint16(0), uint8(128), uint64(3))
	f.Add(uint16(7), uint16(9), uint16(5), uint8(0), uint64(4))
	f.Add(uint16(9), uint16(7), uint16(3), uint8(255), uint64(5))
	f.Add(uint16(1), uint16(129), uint16(1), uint8(25), uint64(6))
	f.Add(uint16(64), uint16(48), uint16(32), uint8(25), uint64(7))
	f.Add(uint16(130), uint16(65), uint16(17), uint8(12), uint64(8))
	f.Add(uint16(130), uint16(65), uint16(17), uint8(0), uint64(9)) // empty pattern, many rows
	f.Add(uint16(0), uint16(0), uint16(0), uint8(0), uint64(10))    // empty pattern, empty dims
	f.Fuzz(func(t *testing.T, rr, cr, nr uint16, density uint8, seed uint64) {
		// n reaches every block of the vector kernel: 48, 32, 8 and the rest.
		rows, cols, n := int(rr%144), int(cr%144), int(nr%112)
		m, dense := fuzzCSR(rows, cols, density, seed)
		b := randDense(n, cols, seed+1)
		want := tensor.MatMulT(b, dense) // (n, rows)
		bg := randDense(n, rows, seed+2)
		bgT := tensor.Transpose(bg)
		wantG := tensor.Transpose(tensor.MatMul(bg, dense)) // (cols, n)

		var ref, refG *tensor.Tensor // the Go chains' 1-worker results
		bothSparseKernels(t, func() {
			defer tensor.SetWorkers(tensor.SetWorkers(1))
			got := tensor.New(n, rows)
			got.Fill(42)
			m.SpMMTInto(got, b)
			if d := tensor.MaxAbsDiff(got, want); d > fuzzTol(cols) {
				t.Fatalf("SpMMTInto(%dx%dx%d, %d nnz) differs from dense by %g", n, cols, rows, m.NNZ(), d)
			}
			gotG := tensor.New(cols, n)
			gotG.Fill(42)
			m.TSpMMInto(gotG, bgT)
			if d := tensor.MaxAbsDiff(gotG, wantG); d > fuzzTol(rows) {
				t.Fatalf("TSpMMInto(%dx%dx%d, %d nnz) differs from dense by %g", n, rows, cols, m.NNZ(), d)
			}
			if ref == nil {
				ref, refG = got.Clone(), gotG.Clone()
			}
			for _, w := range []int{1, 2, 3, 8} {
				tensor.SetWorkers(w)
				m.SpMMTInto(got, b)
				if i, ok := bitwiseEqualSlice(got.Data(), ref.Data()); !ok {
					t.Fatalf("workers=%d: SpMMTInto differs from the Go chains' 1-worker result at %d", w, i)
				}
				m.TSpMMInto(gotG, bgT)
				if i, ok := bitwiseEqualSlice(gotG.Data(), refG.Data()); !ok {
					t.Fatalf("workers=%d: TSpMMInto differs from the Go chains' 1-worker result at %d", w, i)
				}
			}
		})
	})
}

// FuzzSDDMMInto checks the sampled product against (A·Bᵀ) restricted to the
// pattern, in both overwrite and accumulate forms, and pins SDDMMInto handed
// the batch-major Bᵀ too (the windowed kernel, on a pattern at least a
// quarter dense and 32 columns wide) to the same bits.
func FuzzSDDMMInto(f *testing.F) {
	f.Add(uint16(0), uint16(8), uint16(8), uint8(128), uint64(1), false)
	f.Add(uint16(8), uint16(0), uint16(8), uint8(128), uint64(2), true)  // k... cols=0
	f.Add(uint16(8), uint16(8), uint16(0), uint8(128), uint64(3), false) // k=0 dot
	f.Add(uint16(7), uint16(9), uint16(5), uint8(0), uint64(4), true)
	f.Add(uint16(9), uint16(7), uint16(3), uint8(255), uint64(5), false)
	f.Add(uint16(64), uint16(48), uint16(32), uint8(25), uint64(6), true)
	f.Add(uint16(130), uint16(65), uint16(17), uint8(12), uint64(7), false)
	f.Add(uint16(130), uint16(65), uint16(17), uint8(0), uint64(8), true)    // empty pattern, many rows
	f.Add(uint16(0), uint16(0), uint16(0), uint8(0), uint64(9), false)       // empty pattern, empty dims
	f.Add(uint16(41), uint16(100), uint16(33), uint8(128), uint64(10), true) // windowed: half dense, ragged last window
	f.Add(uint16(3), uint16(32), uint16(1), uint8(200), uint64(11), false)   // windowed: one window, k = 1
	f.Fuzz(func(t *testing.T, rr, cr, kr uint16, density uint8, seed uint64, accumulate bool) {
		rows, cols, k := int(rr%144), int(cr%144), int(kr%48)
		m, _ := fuzzCSR(rows, cols, density, seed)
		a := randDense(rows, k, seed+1)
		b := randDense(cols, k, seed+2)
		dense := tensor.MatMulT(a, b) // (rows, cols)
		bT := tensor.Transpose(b)

		want := make([]float32, m.NNZ())
		got := make([]float32, m.NNZ())
		p := 0
		for i := 0; i < m.Rows; i++ {
			for q := m.RowPtr[i]; q < m.RowPtr[i+1]; q++ {
				want[p] = dense.At(i, int(m.ColIdx[q]))
				if accumulate {
					got[p] = float32(p%5) - 2
					want[p] += got[p]
				}
				p++
			}
		}
		seedVals := append([]float32(nil), got...)
		var ref []float32 // the Go chains' 1-worker result
		bothSparseKernels(t, func() {
			defer tensor.SetWorkers(tensor.SetWorkers(1))
			copy(got, seedVals)
			m.SDDMMInto(got, a, b, accumulate)
			if d := maxAbsDiffSlice(got, want); d > fuzzTol(k) {
				t.Fatalf("SDDMMInto(%dx%d k=%d acc=%v, %d nnz) differs from dense by %g",
					rows, cols, k, accumulate, m.NNZ(), d)
			}
			if ref == nil {
				ref = append([]float32{}, got...)
			}
			for _, w := range []int{1, 2, 3, 8} {
				tensor.SetWorkers(w)
				copy(got, seedVals)
				m.SDDMMInto(got, a, b, accumulate)
				if i, ok := bitwiseEqualSlice(got, ref); !ok {
					t.Fatalf("workers=%d: SDDMMInto differs from the Go chains' 1-worker result at %d", w, i)
				}
				copy(got, seedVals)
				m.SDDMMInto(got, a, b, accumulate, bT)
				if i, ok := bitwiseEqualSlice(got, ref); !ok {
					t.Fatalf("workers=%d: SDDMMInto from Bᵀ (windowed=%v) differs from the Go chains' 1-worker result at %d",
						w, m.sddmmWindowed(k), i)
				}
			}
		})
	})
}

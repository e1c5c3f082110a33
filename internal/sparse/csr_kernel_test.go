package sparse

import (
	"fmt"
	"math"
	"testing"

	"github.com/sparse-dl/samo/internal/tensor"
)

// bothSparseKernels runs f under the Go chains and then, on a host that
// selected them at start-up, under the AVX2 CSR kernels — the hook through
// which the CSR goldens and fuzz targets hold both to the same bits. State f
// keeps outside itself carries from the Go half into the vector half. Not
// safe beside a concurrent sparse kernel: it flips the package's kernel
// selection.
func bothSparseKernels(t *testing.T, f func()) {
	t.Helper()
	host, kernel := csrVector, "go"
	defer func() {
		csrVector = host
		if t.Failed() {
			t.Logf("CSR kernel under test: %s", kernel)
		}
	}()
	csrVector = false
	f()
	if !host {
		return // no AVX2 here: the Go chains are all this host ever runs
	}
	csrVector, kernel = true, "avx2"
	f()
}

// sameBits is bitwise equality except that any NaN equals any NaN: when both
// operands of an add are NaN x86 keeps the first one's payload, and which is
// first is the compiler's choice in the Go chain.
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || x != x && y != y
}

// kernelCSR builds a rows×cols CSR with about density of each row's columns
// stored, every fourth row (on average) empty, and — with special — signed
// zeros, subnormals, infinities, NaNs and overflowing magnitudes among the
// values. Stored values may be zero: the pattern is the CSR, not the values.
func kernelCSR(rows, cols int, density float64, special bool, rng *tensor.RNG) *CSR {
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	for i := 0; i < rows; i++ {
		if rng.Float64() >= 0.25 {
			for j := 0; j < cols; j++ {
				if rng.Float64() < density {
					m.ColIdx = append(m.ColIdx, int32(j))
					m.Val = append(m.Val, kernelValue(special, rng))
				}
			}
		}
		m.RowPtr[i+1] = int32(len(m.Val))
	}
	return m
}

var kernelSpecials = []float32{
	float32(math.Copysign(0, -1)), 0, 1e-40, -1e-42, math.SmallestNonzeroFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 3e38, -3e38, 1e-30,
}

func kernelValue(special bool, rng *tensor.RNG) float32 {
	if special && rng.Float64() < 0.05 {
		return kernelSpecials[int(rng.Float64()*float64(len(kernelSpecials)))%len(kernelSpecials)]
	}
	return float32(rng.Float64()*2 - 1)
}

// unaligned returns a rows×cols tensor whose data starts off (odd) floats
// into a fresh allocation, so its address is never a multiple of 32 bytes.
func unaligned(rows, cols, off int, special bool, rng *tensor.RNG) *tensor.Tensor {
	d := make([]float32, rows*cols+off)[off:]
	for i := range d {
		d[i] = kernelValue(special, rng)
	}
	return tensor.FromSlice(d, rows, cols)
}

// TestCSRVectorKernelsMatchGo is the differential test of the AVX2 CSR
// kernels against the Go chains they replace, bit for bit, through the public
// entry points: SpMMᵀ from a feature-major operand (TSpMMTInto) and from a
// sample-major one (SpMMTInto), the input gradient's SpMM from the
// feature-major operand (TSpMMInto), and SDDMM overwriting and accumulating,
// over every batch height class — below one vector (1, 7), one vector and its
// neighbours (8, 9), the 32- and 48-wide blocks and their neighbours (31–33,
// 48, 57 = 48+8+1), and the paper's 576 — on patterns with empty rows and
// with no nonzero at all, once on ordinary values and once with signed
// zeros, subnormals, infinities and NaNs mixed into every operand, where a
// flushed subnormal, a lost zero sign or a fused rounding would show.
// Operands sit at addresses that are not 32-byte aligned. Three workers split
// the larger products into chunks, so TSpMMInto's per-chunk column searches
// run too.
func TestCSRVectorKernelsMatchGo(t *testing.T) {
	if !csrVector {
		t.Skip("host has no AVX2: the Go chains are the only kernels")
	}
	defer func() { csrVector = true }()
	defer tensor.SetWorkers(tensor.SetWorkers(3))
	rng := tensor.NewRNG(83)
	check := func(what string, got, want []float32) {
		t.Helper()
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: element %d = %x under AVX2, %x under Go",
					what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	for _, special := range []bool{false, true} {
		for _, s := range []struct {
			rows, cols int
			density    float64
		}{{37, 29, 0.3}, {9, 70, 0.9}, {16, 12, 0}, {33, 100, 0.6}, {10, 64, 0.2}, {7, 32, 1}, {4, 40, 0}} {
			m := kernelCSR(s.rows, s.cols, s.density, special, rng)
			ascending := s.rows != 33
			if !ascending {
				reverseRows(m) // the windowed SDDMM revisits windows of an unsorted row
			}
			for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 48, 57, 576} {
				name := fmt.Sprintf("special=%v %dx%d nnz=%d n=%d", special, s.rows, s.cols, m.NNZ(), n)
				bt := unaligned(s.cols, n, 3, special, rng) // Bᵀ (k, n)
				b := unaligned(n, s.cols, 5, special, rng)  // B (n, k)
				spmmt := func(vec, transposed bool) []float32 {
					csrVector = vec
					c := unaligned(n, s.rows, 1, false, rng)
					if transposed {
						m.TSpMMTInto(c, bt)
					} else {
						m.SpMMTInto(c, b)
					}
					return c.Data()
				}
				check(name+" TSpMMTInto", spmmt(true, true), spmmt(false, true))
				check(name+" SpMMTInto", spmmt(true, false), spmmt(false, false))

				a := unaligned(s.rows, n, 7, special, rng) // SDDMM: k is the batch; TSpMMInto's Bᵀ
				// TSpMMInto searches each row's columns, so they must ascend.
				if ascending {
					tspmm := func(vec bool) []float32 {
						csrVector = vec
						ct := unaligned(s.cols, n, 1, special, rng) // overwritten
						m.TSpMMInto(ct, a)
						return ct.Data()
					}
					check(name+" TSpMMInto", tspmm(true), tspmm(false))
				}
				bs := unaligned(s.cols, n, 1, special, rng)
				bsT := unaligned(n, s.cols, 5, false, rng) // the batch-major operand
				tensor.TransposeInto(bsT, bs)
				seed := unaligned(1, m.NNZ(), 3, special, rng).Data()
				for _, accumulate := range []bool{false, true} {
					sddmm := func(vec bool, bT ...*tensor.Tensor) []float32 {
						csrVector = vec
						out := append(make([]float32, 1, 1+len(seed)), seed...)[1:]
						m.SDDMMInto(out, a, bs, accumulate, bT...)
						return out
					}
					what := fmt.Sprintf("%s SDDMMInto accumulate=%v", name, accumulate)
					want := sddmm(false)
					check(what+" gathered", sddmm(true), want)
					check(fmt.Sprintf("%s windowed=%v", what, m.sddmmWindowed(n)), sddmm(true, bsT), want)
				}
			}
		}
	}
}

// reverseRows reverses the stored order of every row's nonzeros: a valid
// CSR whose columns fall within a row.
func reverseRows(m *CSR) {
	for i := 0; i < m.Rows; i++ {
		c, v := m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]], m.Val[m.RowPtr[i]:m.RowPtr[i+1]]
		for l, r := 0, len(c)-1; l < r; l, r = l+1, r-1 {
			c[l], c[r] = c[r], c[l]
			v[l], v[r] = v[r], v[l]
		}
	}
}

// TestCSRKernelsRejectBadColumn pins the one check the vector kernels make
// themselves: a column index outside the operand panics under both kernels
// (the Go chains through their bounds checks) instead of reading memory the
// index names.
func TestCSRKernelsRejectBadColumn(t *testing.T) {
	for _, bad := range []int32{4, -1} {
		m := &CSR{Rows: 2, Cols: 4, RowPtr: []int32{0, 1, 2}, ColIdx: []int32{1, bad}, Val: []float32{1, 2}}
		for _, call := range []struct {
			name string
			f    func()
		}{
			{"TSpMMTInto", func() { m.TSpMMTInto(tensor.New(16, 2), tensor.New(4, 16)) }},
			{"SpMMTInto", func() { m.SpMMTInto(tensor.New(16, 2), tensor.New(16, 4)) }},
			{"TSpMMInto", func() { m.TSpMMInto(tensor.New(4, 16), tensor.New(2, 16)) }},
			{"TSpMMInto, Go lanes", func() { m.TSpMMInto(tensor.New(4, 3), tensor.New(2, 3)) }},
			{"SDDMMInto", func() { m.SDDMMInto(make([]float32, 2), tensor.New(2, 16), tensor.New(4, 16), false) }},
			{"SDDMMInto windowed", func() {
				w := windowCSR(bad * 8) // 4 → 32 = Cols, -1 → -8
				if csrVector && !w.sddmmWindowed(16) {
					t.Fatal("fixture does not take the windowed kernel")
				}
				w.SDDMMInto(make([]float32, w.NNZ()), tensor.New(2, 16), tensor.New(32, 16), false, tensor.New(16, 32))
			}},
		} {
			bothSparseKernels(t, func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with column index %d did not panic", call.name, bad)
					}
				}()
				call.f()
			})
		}
	}
}

// windowCSR is a 2×32 pattern dense enough for the windowed SDDMM: row 0
// full, row 1 holding column 0 and then bad.
func windowCSR(bad int32) *CSR {
	m := &CSR{Rows: 2, Cols: 32, RowPtr: []int32{0, 32, 34}}
	for j := int32(0); j < 32; j++ {
		m.ColIdx = append(m.ColIdx, j)
	}
	m.ColIdx = append(m.ColIdx, 0, bad)
	m.Val = make([]float32, len(m.ColIdx))
	return m
}

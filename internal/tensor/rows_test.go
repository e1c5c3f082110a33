package tensor

import (
	"fmt"
	"math"
	"testing"
)

// rowTwinLens are the vector lengths the row and add kernels are held to
// their Go loops at: every length below one vector body, the serving and
// training head widths and key counts, and every length class around the
// kernels' 8-, 16- and 32-float blocks.
var rowTwinLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 24, 31, 32, 33, 48, 192}

// rowTwinCounts are the inner lengths (coordinates summed, rows weighted or
// updated): one, every count below and at a 4-row tile and past it, the
// serving key count, and a tall one.
var rowTwinCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 128}

// rowTwinFill returns n floats at an odd offset into a fresh allocation
// (never 32-byte aligned): ordinary values, with about one in six of
// gemmTwinSpecials (±0, subnormals, ±Inf, huge magnitudes, NaN) when
// special is set.
func rowTwinFill(rng *RNG, n, off int, special bool) []float32 {
	s := make([]float32, n+off+8)[off : off+n]
	for i := range s {
		s[i] = float32(rng.Float64()*2 - 1)
		if special && rng.Float64() < 0.17 {
			s[i] = gemmTwinSpecials[int(rng.Float64()*float64(len(gemmTwinSpecials)))%len(gemmTwinSpecials)]
		}
	}
	return s
}

// sameSlices reports the first index where got and want differ beyond
// sameBits, or -1.
func sameSlices(got, want []float32) int {
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// TestRowKernelsMatchGo holds the AVX2 bodies of DotsInto, AddWeightedRows
// and AddOuterRows (rows_amd64.s) to their Go loops bit for bit: every
// rowTwinLens output length × rowTwinCounts inner length, with the row
// stride equal to the length and wider, operands at odd offsets, once on
// ordinary values and once with signed zeros, subnormals, infinities,
// overflowing magnitudes and NaNs among the operands and the weights — where
// a skipped or unskipped ±0 weight, a flushed subnormal or a fused rounding
// would show. The kernels run serially on the caller, so no worker count
// enters.
func TestRowKernelsMatchGo(t *testing.T) {
	if !rowsVector {
		t.Skip("host has no AVX2: the Go loops are the only row kernels")
	}
	defer func() { rowsVector = true }()
	rng := NewRNG(81)
	for _, special := range []bool{false, true} {
		for _, n := range rowTwinLens {
			for _, m := range rowTwinCounts {
				for _, stride := range []int{n, n + 5} {
					name := fmt.Sprintf("n=%d m=%d stride=%d special=%v", n, m, stride, special)
					span := (m-1)*stride + n
					x, w := rowTwinFill(rng, m, 1, special), rowTwinFill(rng, m, 3, special)
					mat := rowTwinFill(rng, span, 5, special)
					seed := rowTwinFill(rng, n, 7, special)
					run := func(vec bool, f func()) {
						rowsVector = vec
						f()
					}
					// DotsInto: n dots of length m over a transposed m × n block.
					want, got := make([]float32, n), make([]float32, n)
					run(false, func() { DotsInto(want, x, mat, stride) })
					run(true, func() { DotsInto(got, x, mat, stride) })
					if i := sameSlices(got, want); i >= 0 {
						t.Fatalf("DotsInto %s: [%d] = %#x under AVX2, %#x under Go", name, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
					// AddWeightedRows: n columns, m weighted rows.
					want, got = append([]float32(nil), seed...), append([]float32(nil), seed...)
					run(false, func() { AddWeightedRows(want, w, mat, stride) })
					run(true, func() { AddWeightedRows(got, w, mat, stride) })
					if i := sameSlices(got, want); i >= 0 {
						t.Fatalf("AddWeightedRows %s: [%d] = %#x under AVX2, %#x under Go", name, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
					// AddOuterRows: m rows of n columns, with and without the skip.
					for _, skip := range []bool{false, true} {
						want, got = append([]float32(nil), mat...), append([]float32(nil), mat...)
						run(false, func() { AddOuterRows(want, stride, w, seed, skip) })
						run(true, func() { AddOuterRows(got, stride, w, seed, skip) })
						if i := sameSlices(got, want); i >= 0 {
							t.Fatalf("AddOuterRows %s skip=%v: [%d] = %#x under AVX2, %#x under Go", name, skip, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// TestAddKernelsMatchGo holds Add, AddBias and SumRowsInto with the AVX2
// add body (addAVX2) to the Go loop bit for bit: m rows of rowTwinCounts × n
// columns of rowTwinLens, with and without specials, SumRowsInto both
// overwriting and accumulating.
func TestAddKernelsMatchGo(t *testing.T) {
	if !sweepVector {
		t.Skip("host has no AVX2: the Go loops are the only add")
	}
	defer func() { sweepVector = true }()
	rng := NewRNG(82)
	for _, special := range []bool{false, true} {
		for _, m := range rowTwinCounts {
			for _, n := range rowTwinLens {
				if n == 0 {
					continue
				}
				name := fmt.Sprintf("%dx%d special=%v", m, n, special)
				x := FromSlice(rowTwinFill(rng, m*n, 1, special), m, n)
				y := FromSlice(rowTwinFill(rng, m*n, 3, special), m, n)
				bias := FromSlice(rowTwinFill(rng, n, 5, special), n)
				sum := FromSlice(rowTwinFill(rng, n, 7, special), n)
				both := func(f func(vec bool) []float32) []float32 {
					want, got := f(false), f(true)
					if i := sameSlices(got, want); i >= 0 {
						t.Fatalf("%s: [%d] = %#x under AVX2, %#x under Go", name, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
					return got
				}
				both(func(vec bool) []float32 {
					sweepVector = vec
					c := x.Clone()
					Add(c, y)
					return c.Data()
				})
				both(func(vec bool) []float32 {
					sweepVector = vec
					c := x.Clone()
					AddBias(c, bias)
					return c.Data()
				})
				for _, accumulate := range []bool{false, true} {
					both(func(vec bool) []float32 {
						sweepVector = vec
						d := sum.Clone()
						SumRowsInto(d, x, accumulate)
						return d.Data()
					})
				}
			}
		}
	}
}

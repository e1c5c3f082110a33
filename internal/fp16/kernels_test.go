package fp16

import (
	"fmt"
	"math"
	"testing"

	"github.com/sparse-dl/samo/internal/parallel"
)

// kernelLens straddle the serial/parallel boundary and the chunk boundaries
// above it.
var kernelLens = []int{0, 1, 7, 8, 9, parallel.StreamGrain - 1, parallel.StreamGrain, parallel.StreamGrain + 1, 1<<18 + 3}

// testValues fills n float32s that exercise every range of Round: mostly
// normal-range values, with zeros of both signs, half subnormals, ties,
// overflow, infinities and NaNs sprinkled in.
func testValues(n int, seed uint32) []float32 {
	specials := []uint32{0, signBit, 0x33800000 /* 2⁻²⁴ */, 0x33000000 /* 2⁻²⁵ */, 0x00000001,
		0x3F801000 /* tie */, 0x477FEFFF, 0x477FF000, 0x7F800000, 0xFF800000, 0x7FC00001, 0xFF800001, 0x7F7FFFFF}
	s := make([]float32, n)
	x := seed*2654435761 + 1
	for i := range s {
		x = x*1664525 + 1013904223
		if x>>28 == 0 {
			s[i] = math.Float32frombits(specials[(x>>8)%uint32(len(specials))])
		} else {
			s[i] = (float32(x>>8)/(1<<24) - 0.5) * float32(math.Ldexp(1, int(x>>4&31)-20))
		}
	}
	return s
}

// idPatterns returns the index patterns the indexed kernels are checked on:
// empty, every position, one position, and a strided subset.
func idPatterns(full int) map[string][]int32 {
	pats := map[string][]int32{"empty": {}}
	if full == 0 {
		return pats
	}
	all := make([]int32, full)
	var strided []int32
	for i := range all {
		all[i] = int32(i)
		if i%3 != 1 {
			strided = append(strided, int32(i))
		}
	}
	pats["full"], pats["single"], pats["strided"] = all, []int32{int32(full / 2)}, strided
	return pats
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %#08x, want %#08x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

func clone(s []float32) []float32 { return append([]float32(nil), s...) }

// sameSums is sameBits for the accumulating kernels, with the sign of NaNs
// ignored: when both addends are NaNs the hardware returns one of them, and
// which one is the compiler's choice of operand order (it differs between
// plain and race builds). Round carries whichever sign it is given.
func sameSums(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for _, s := range [][]float32{got, want} {
		for i, v := range s {
			if math.IsNaN(float64(v)) {
				s[i] = math.Float32frombits(math.Float32bits(v) &^ signBit)
			}
		}
	}
	sameBits(t, what, got, want)
}

// TestKernelsMatchOracle checks every slice kernel against a plain loop over
// the scalar oracle, bit for bit, at one worker and at four (the chunked
// path), for every length and index pattern.
func TestKernelsMatchOracle(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, n := range kernelLens {
			t.Run(fmt.Sprintf("w%d/n%d", workers, n), func(t *testing.T) {
				defer parallel.SetWorkers(parallel.SetWorkers(workers))
				src, acc0 := testValues(n, 1), testValues(n, 2)

				want := make([]float32, n)
				for i, v := range src {
					want[i] = roundOracle(v)
				}
				got := make([]float32, n)
				RoundSlice(got, src)
				sameBits(t, "RoundSlice", got, want)
				got = clone(src)
				RoundSlice(got, got)
				sameBits(t, "RoundSlice in place", got, want)

				for i := range want {
					want[i] = roundOracle(acc0[i] + src[i])
				}
				got, g := clone(acc0), clone(src)
				AccumRoundClear(got, g)
				sameSums(t, "AccumRoundClear acc", got, want)
				sameBits(t, "AccumRoundClear g", g, make([]float32, n))

				for name, ids := range idPatterns(n) {
					packed := testValues(len(ids), 3)

					want, got := clone(acc0), clone(acc0)
					for i, id := range ids {
						want[id] = roundOracle(packed[i])
					}
					RoundScatter(got, packed, ids)
					sameBits(t, "RoundScatter/"+name, got, want)

					want, got = clone(packed), clone(packed)
					for i, id := range ids {
						want[i] = roundOracle(packed[i] + src[id])
					}
					AccumRoundGather(got, src, ids)
					sameSums(t, "AccumRoundGather/"+name, got, want)

					want, got = clone(acc0), clone(acc0)
					for _, id := range ids {
						want[id] = roundOracle(acc0[id] + src[id])
					}
					AccumRoundAt(got, src, ids)
					sameSums(t, "AccumRoundAt/"+name, got, want)
				}
			})
		}
	}
}

func TestKernelsRejectLengthMismatch(t *testing.T) {
	a, b, ids := make([]float32, 4), make([]float32, 3), make([]int32, 2)
	for name, f := range map[string]func(){
		"RoundSlice":       func() { RoundSlice(a, b) },
		"RoundScatter":     func() { RoundScatter(a, b, ids) },
		"AccumRoundClear":  func() { AccumRoundClear(a, b) },
		"AccumRoundGather": func() { AccumRoundGather(a, b, ids) },
		"AccumRoundAt":     func() { AccumRoundAt(a, b, ids) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted mismatched lengths", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkKernels reports each kernel's streaming rate on a vector the size
// of the bench MLP's largest layer (768×768), on normal-range values (what
// weights and loss-scaled gradients are; testValues' mix of ranges would
// time the branch predictor instead).
func BenchmarkKernels(b *testing.B) {
	const n = 768 * 768
	src, acc := make([]float32, n), make([]float32, n)
	for i := range src {
		src[i] = float32(i%1999-999) / 256
	}
	ids := idPatterns(n)["strided"]
	packed := make([]float32, len(ids))
	for _, k := range []struct {
		name  string
		elems int
		f     func()
	}{
		{"RoundSlice", n, func() { RoundSlice(acc, src) }},
		{"RoundScatter", len(ids), func() { RoundScatter(acc, packed, ids) }},
		{"AccumRoundClear", n, func() { AccumRoundClear(acc, src) }},
		{"AccumRoundGather", len(ids), func() { AccumRoundGather(packed, src, ids) }},
		{"AccumRoundAt", len(ids), func() { AccumRoundAt(acc, src, ids) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(4 * k.elems))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.f()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k.elems), "ns/elem")
		})
	}
}

package fp16

import (
	"fmt"
	"math"
	"testing"
)

// halfLens are every length up to two vector bodies and a tail, 8k±1 around
// a few more bodies, and one length past all 2¹⁶ patterns.
var halfLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23, 25, 63, 65,
	8191, 8193, 1<<16 + 3}

// halfPatterns returns all 2¹⁶ binary16 patterns in an order fixed by seed
// (seed 0 is ascending): both zeros, subnormals, normals, both infinities
// and every NaN payload of both signs, signalling ones included.
func halfPatterns(seed uint32) []uint16 {
	p := make([]uint16, 1<<16)
	for i := range p {
		p[i] = uint16(i)
	}
	x := seed*2654435761 + 1
	for i := len(p) - 1; seed != 0 && i > 0; i-- {
		x = x*1664525 + 1013904223
		j := int(x>>8) % (i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// gridValues returns n widened halves cycling through halfPatterns(seed),
// widened by the test oracle ToFloat32.
func gridValues(n int, seed uint32) ([]float32, []uint16) {
	pats := halfPatterns(seed)
	s, h := make([]float32, n), make([]uint16, n)
	for i := range s {
		h[i] = pats[i%len(pats)]
		s[i] = ToFloat32(Bits(h[i]))
	}
	return s, h
}

// packOracle packs halves h two to a word.
func packOracle(h []uint16) []uint32 {
	w := make([]uint32, Words(len(h)))
	for i, v := range h {
		w[i/2] |= uint32(v) << (16 * (i & 1))
	}
	return w
}

// addOracle is the serial sum's add: a NaN operand comes back quieted, the
// first operand's before the second's; otherwise the float32 sum.
func addOracle(a, b float32) float32 {
	switch {
	case a != a:
		return math.Float32frombits(math.Float32bits(a) | 0x00400000)
	case b != b:
		return math.Float32frombits(math.Float32bits(b) | 0x00400000)
	}
	return a + b
}

func wordsAt(off int, w []uint32) []uint32 {
	return append(make([]uint32, off, off+len(w)), w...)[off:]
}

// TestHalfKernelsMatchOracle checks PackHalves and SumHalves against the
// test oracles, bit for bit, with the vector kernels forced off and (on a
// host that has them) on, at every length and at start offsets that put the
// operands off a 32-byte boundary — the pack out of place and in place, and
// the fold with its frames apart from the destination and with each frame
// position in turn read from the destination's front, the way a collective
// runs it. The
// inputs are all 2¹⁶ half patterns, each operand in its own order, so every
// NaN meets every value.
func TestHalfKernelsMatchOracle(t *testing.T) {
	defer func(host bool) { roundVector = host }(roundVector)
	for _, vec := range roundKernels() {
		roundVector = vec
		for _, n := range halfLens {
			for _, off := range []int{0, 1, 3} {
				t.Run(fmt.Sprintf("vec=%v/n%d/off%d", vec, n, off), func(t *testing.T) {
					halfKernelsMatchOracle(t, n, off)
				})
			}
		}
	}
}

func halfKernelsMatchOracle(t *testing.T, n, off int) {
	var vals [3][]float32
	var words [3][]uint32
	for k := range vals {
		var h []uint16
		vals[k], h = gridValues(n, uint32(k+1))
		words[k] = packOracle(h)
	}
	nw := Words(n)

	got := wordsAt(off, make([]uint32, nw))
	if bad := packHalves(got, at(off, vals[0])); bad != -1 {
		t.Fatalf("packHalves rejected element %d (%#08x), which is on the grid", bad, math.Float32bits(vals[0][bad]))
	}
	sameWords(t, "packHalves", got, words[0])
	inPlace := at(off, vals[0])
	front, bad := PackHalves(inPlace)
	if bad != -1 {
		t.Fatalf("PackHalves in place rejected element %d", bad)
	}
	if len(front) != nw || nw > 0 && &front[0] != &inPlace[0] {
		t.Fatalf("PackHalves returned %d words, not the front %d of its buffer", len(front), nw)
	}
	sameWords(t, "PackHalves in place", wordsOf(front), words[0])

	for g := 2; g <= 3; g++ {
		want := make([]float32, n)
		for i := range want {
			want[i] = addOracle(vals[0][i], vals[1][i])
			if g == 3 {
				want[i] = addOracle(want[i], vals[2][i])
			}
		}
		ops := func(own int, dst []float32) (a, b, c []float32) {
			var w [3][]float32
			for k := range w {
				w[k] = at(off, make([]float32, nw))
				if k == own {
					w[k] = dst[:nw]
				}
				copy(wordsOf(w[k]), words[k])
			}
			if g == 2 {
				w[2] = nil
			}
			return w[0], w[1], w[2]
		}
		for own := -1; own < g; own++ { // -1: out of place
			dst := at(off, make([]float32, n))
			a, b, c := ops(own, dst)
			SumHalves(dst, a, b, c)
			sameBits(t, fmt.Sprintf("SumHalves G=%d own=%d", g, own), dst, want)
		}
	}
}

func sameWords(t *testing.T, what string, got, want []uint32) {
	t.Helper()
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s word %d = %#08x, want %#08x", what, k, got[k], want[k])
		}
	}
}

// TestPackHalvesRejectsOffGrid puts one value that no half widens to at
// every position of short buffers and at body and tail positions of a long
// one, after an on-grid prefix: PackHalves must name its index, on both
// kernels, never round it. A signalling NaN, on the grid, is accepted.
func TestPackHalvesRejectsOffGrid(t *testing.T) {
	defer func(host bool) { roundVector = host }(roundVector)
	offGrid := []uint32{
		0x3F800001, // 1 + 2⁻²³
		0x00000001, // a float32 subnormal
		0x33000000, // 2⁻²⁵, half the smallest half subnormal
		0x477FF000, // 65520, rounds to Inf
		0x47800000, // 65536
		0x7F7FFFFF, // the largest float32
		0x7F800001, // a NaN whose payload sits below a half's ten bits
		0xFFC00001,
	}
	for _, vec := range roundKernels() {
		roundVector = vec
		for _, n := range []int{1, 2, 7, 8, 9, 16, 17, 1027} {
			positions := []int{0, n / 2, n - 1}
			if n <= 17 {
				positions = positions[:0]
				for p := 0; p < n; p++ {
					positions = append(positions, p)
				}
			}
			for _, pos := range positions {
				for _, bad := range offGrid {
					src, _ := gridValues(n, 4)
					src[pos] = math.Float32frombits(bad)
					if pos < n-1 {
						src[n-1] = math.Float32frombits(0x3F800001) // a later bad element must not win
					}
					got := packHalves(make([]uint32, Words(n)), at(1, src))
					if got != pos {
						t.Fatalf("vec=%v n=%d: %#08x at %d reported at %d", vec, n, bad, pos, got)
					}
					in := at(1, src)
					if _, got := PackHalves(in); got != pos || math.Float32bits(in[pos]) != bad {
						t.Fatalf("vec=%v n=%d in place: %#08x at %d reported at %d, left as %#08x", vec, n, bad, pos, got, math.Float32bits(in[pos]))
					}
				}
			}
		}
		snan := []float32{math.Float32frombits(0x7F802000), math.Float32frombits(0xFF800000 | 0x1FF<<13)}
		src := append(make([]float32, 14), snan...)
		w := make([]uint32, Words(len(src)))
		if bad := packHalves(w, src); bad != -1 || w[7] != 0x7C01|(0xFDFF<<16) {
			t.Fatalf("vec=%v: signalling NaNs packed as %#08x (bad %d), want 0xfdff7c01", vec, w[7], bad)
		}
	}
}

func TestHalfKernelsRejectLengthMismatch(t *testing.T) {
	f, w := make([]float32, 5), make([]uint32, 2)
	for name, fn := range map[string]func(){
		"packHalves":   func() { packHalves(w, f) },
		"SumHalves a":  func() { SumHalves(f, f[:2], f[:3], nil) },
		"SumHalves b":  func() { SumHalves(f, f[:3], f[:2], nil) },
		"SumHalves c":  func() { SumHalves(f, f[:3], f[:3], f[:2]) },
		"packHalves 4": func() { packHalves(make([]uint32, 3), f[:4]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted mismatched lengths", name)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkHalves times the half-word sweeps on a dp2-sized bucket
// (589 824 elements, one 768×768 weight), normal-range values.
func BenchmarkHalves(b *testing.B) {
	const n = 768 * 768
	src, dst := make([]float32, n), make([]float32, n)
	for i := range src {
		src[i] = Round(float32(i%1999-999) / 256)
	}
	w := make([]uint32, Words(n))
	for _, k := range []struct {
		name string
		f    func()
	}{
		{"PackHalves", func() { packHalves(w, src) }},
		{"SumHalves", func() { sumHalves(dst, w, w, nil) }},
		{"SumHalves3", func() { sumHalves(dst, w, w, w) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(4 * n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.f()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}

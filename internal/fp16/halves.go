package fp16

import (
	"math"
	"unsafe"

	"github.com/sparse-dl/samo/internal/tensor"
)

// Half words: the wire form of an fp16-grid payload. A buffer whose every
// element is a binary16 value widened (a ∇θ16 slab) travels at two bytes per
// element as binary16 bits packed two to a 32-bit word — element 2k in the
// low 16 bits of word k, element 2k+1 in the high 16 (zero past an odd end).
// The words are built arithmetically, so a transport that moves 32-bit words
// in its own byte order keeps both halves in place on any host. Packing
// never rounds: an element off the grid is reported, not moved. Widening a
// half is exact, so a sum folded from the words is the float32 sum of the
// original elements, bit for bit.
//
// The words travel in float32 buffers, the collective's, and are never read
// there as floats: PackHalves writes them over the front of the buffer it
// packs, and SumHalves takes the frames as they arrive, one of which may be
// the front of its own destination. Word k carries elements 2k and 2k+1, so
// the pack runs upwards (word k is written once elements 2k and 2k+1 are
// read) and the fold downwards (element i overwrites word i, whose elements
// 2i and 2i+1 are already folded, or, for i = 0, read just before).
//
// On an amd64 host with AVX2 and F16C (tensor.HostAVX2) the multiple-of-8
// body of a call runs through the hardware conversions (round_amd64.s); the
// Go loops run the 0–7 tail, every other host and the purego build, and are
// the oracle the vector kernels are pinned to. These sweeps are
// single-threaded: they run on a rank's collective goroutine.

// Words returns the number of half words that carry n elements.
func Words(n int) int { return (n + 1) / 2 }

// PackHalves packs buf in place and returns the packed front: on return
// words = buf[:Words(len(buf))] holds the binary16 bits of buf's elements,
// two to a word, and the rest of buf is unchanged. bad is the index of the
// first element that is not a widened binary16 value (its half does not
// widen back to the same float32 bits; NaNs compare by their bits), or -1
// when every element is on the grid. After a non-negative bad the words are
// unspecified, but buf[bad] still holds that element.
func PackHalves(buf []float32) (words []float32, bad int) {
	words = buf[:Words(len(buf))]
	return words, packHalves(wordsOf(words), buf)
}

// packHalves is PackHalves with the words written to dst, which must hold
// Words(len(src)) words and may be the front of src's own memory.
func packHalves(dst []uint32, src []float32) int {
	checkLen("PackHalves dst", len(dst), Words(len(src)))
	done := 0
	if n := len(src) &^ 7; roundVector && n > 0 {
		// The kernel stops before the first block it cannot pack exactly —
		// an off-grid element, or a signalling NaN, which the hardware
		// conversion quiets but the Go loop carries — and leaves it unwritten.
		done = packHalvesAVX2(&dst[0], &src[0], n)
	}
	if bad := packHalvesGo(dst[done/2:], src[done:]); bad >= 0 {
		return done + bad
	}
	return -1
}

func packHalvesGo(dst []uint32, src []float32) int {
	for i := 0; i < len(src); i += 2 {
		lo, ok := halfOf(src[i])
		if !ok {
			return i
		}
		var hi uint32
		if i+1 < len(src) {
			if hi, ok = halfOf(src[i+1]); !ok {
				return i + 1
			}
		}
		dst[i/2] = lo | hi<<16
	}
	return -1
}

// halfOf returns the binary16 bits of f and whether they widen back to f's
// exact bits. The bits are right whenever f is on the grid; off it they are
// some half that widens to a different value, which the check catches.
func halfOf(f float32) (uint32, bool) {
	b := math.Float32bits(f)
	a := b &^ signBit
	var h uint32
	switch {
	case a >= f32Inf: // Inf and NaN: the payload's top ten bits
		h = 0x7C00 | a>>13&0x3FF
	case a >= minNormal: // rebias the exponent 127 → 15
		h = (a - 0x38000000) >> 13
	default: // zero and half subnormals, k·2⁻²⁴ for k < 1024
		h = uint32(math.Float32frombits(a) * 0x1p24)
	}
	h = h&0x7FFF | b>>16&0x8000
	return h, widenBits(h) == b
}

// widenBits returns the float32 bits of binary16 h, exactly.
func widenBits(h uint32) uint32 {
	s := h & 0x8000 << 16
	a := h & 0x7FFF
	switch {
	case a >= 0x7C00:
		return s | f32Inf | (a&0x3FF)<<13
	case a >= 0x0400:
		return s | (a+112<<10)<<13
	default:
		return s | math.Float32bits(float32(a)*0x1p-24)
	}
}

// widen returns element i of half words w as a float32.
func widen(w []uint32, i int) float32 {
	return math.Float32frombits(widenBits(w[i/2] >> (16 * (i & 1)) & 0xFFFF))
}

// SumHalves folds half-word frames into dst in group order: dst[i] = a_i +
// b_i, or (a_i + b_i) + c_i when c is not nil, where a_i is element i of the
// words a carries widened (likewise b and c); each add takes the running sum
// as its first operand. Every frame must hold Words(len(dst)) words; any of
// them may be the front of dst's own memory.
func SumHalves(dst []float32, a, b, c []float32) {
	sumHalves(dst, wordsOf(a), wordsOf(b), wordsOf(c))
}

func sumHalves(dst []float32, a, b, c []uint32) {
	nw := Words(len(dst))
	checkLen("SumHalves a", len(a), nw)
	checkLen("SumHalves b", len(b), nw)
	if c != nil {
		checkLen("SumHalves c", len(c), nw)
	}
	// The Go loop takes the tail (everything without the vector kernel),
	// then the kernel the body, both from the top down.
	body := 0
	if roundVector {
		body = len(dst) &^ 7
	}
	for i := len(dst) - 1; i >= body; i-- {
		s := tensor.OrderedAdd(widen(a, i), widen(b, i))
		if c != nil {
			s = tensor.OrderedAdd(s, widen(c, i))
		}
		dst[i] = s
	}
	if body > 0 {
		var c0 *uint32
		if c != nil {
			c0 = &c[0]
		}
		sumHalvesAVX2(&dst[0], &a[0], &b[0], c0, body)
	}
}

// wordsOf views a float32 buffer's memory as the half words it carries. A
// nil buffer gives nil words.
func wordsOf(f []float32) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(f))), len(f))
}

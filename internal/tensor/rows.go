package tensor

import "fmt"

// Row primitives of attention's per-(batch, head) products: the scores of
// one query against a block of keys, a probability-weighted sum of value
// rows, and a rank-1 update of gradient rows. Each runs the AVX2 kernel of
// rows_amd64.s over its multiple-of-8 body where rowsVector holds and the Go
// loop below it over the rest, on every other host and in the purego build;
// the Go loops are the kernels' oracle. Every output element sees the Go
// loop's float32 operations in the Go loop's order — one multiply, rounded,
// then one add, rounded, with the running value as its first operand — so
// the kernel moves no bit (TestRowKernelsMatchGo).

// DotsInto sets dst[j] = Σ_c x[c]·kt[c·stride + j] for every j < len(dst),
// each sum starting at +0 and adding in c order: the dot products of x with
// len(dst) key rows stored transposed (kt row c holds coordinate c of every
// key, stride floats apart).
func DotsInto(dst, x, kt []float32, stride int) {
	n := len(dst)
	if n == 0 || len(x) == 0 {
		clear(dst)
		return
	}
	if need := (len(x)-1)*stride + n; len(kt) < need {
		panic(fmt.Sprintf("tensor: DotsInto reads %d floats of kt, has %d", need, len(kt)))
	}
	if nv := n &^ 7; rowsVector && nv > 0 {
		dotsAVX2(&dst[0], nv, &x[0], len(x), &kt[0], stride)
		dst, kt = dst[nv:], kt[nv:]
	}
	dots(dst, x, kt, stride)
}

func dots(dst, x, kt []float32, stride int) {
	for j := range dst {
		var s float32
		for c, xc := range x {
			s += xc * kt[c*stride+j]
		}
		dst[j] = s
	}
}

// AddWeightedRows sets dst[c] += Σ_j w[j]·rows[j·stride + c] for every
// c < len(dst), adding in j order and skipping every j whose weight is ±0:
// the weighted sum of len(w) rows stride floats apart, a softmax row's
// probabilities over value rows.
func AddWeightedRows(dst, w, rows []float32, stride int) {
	n := len(dst)
	if n == 0 || len(w) == 0 {
		return
	}
	if need := (len(w)-1)*stride + n; len(rows) < need {
		panic(fmt.Sprintf("tensor: AddWeightedRows reads %d floats of rows, has %d", need, len(rows)))
	}
	if nv := n &^ 7; rowsVector && nv > 0 {
		addWeightedRowsAVX2(&dst[0], nv, &w[0], len(w), &rows[0], stride)
		if nv == n {
			return
		}
		dst, rows = dst[nv:], rows[nv:]
	}
	addWeightedRows(dst, w, rows, stride)
}

func addWeightedRows(dst, w, rows []float32, stride int) {
	for j, p := range w {
		if p == 0 {
			continue
		}
		r := rows[j*stride : j*stride+len(dst)]
		for c := range dst {
			dst[c] += p * r[c]
		}
	}
}

// AddOuterRows sets rows[j·stride + c] += w[j]·x[c] for every j < len(w)
// and c < len(x): the rank-1 update w·xᵀ into len(w) rows stride floats
// apart. With skipZero a row whose weight is ±0 is left untouched (its
// update would add ±0, or a NaN where x holds an infinity).
func AddOuterRows(rows []float32, stride int, w, x []float32, skipZero bool) {
	n := len(x)
	if n == 0 || len(w) == 0 {
		return
	}
	if need := (len(w)-1)*stride + n; len(rows) < need {
		panic(fmt.Sprintf("tensor: AddOuterRows writes %d floats of rows, has %d", need, len(rows)))
	}
	if nv := n &^ 7; rowsVector && nv > 0 {
		addOuterRowsAVX2(&rows[0], stride, &w[0], len(w), &x[0], nv, skipZero)
		if nv == n {
			return
		}
		rows, x = rows[nv:], x[nv:]
	}
	addOuterRows(rows, stride, w, x, skipZero)
}

func addOuterRows(rows []float32, stride int, w, x []float32, skipZero bool) {
	for j, p := range w {
		if skipZero && p == 0 {
			continue
		}
		r := rows[j*stride : j*stride+len(x)]
		for c, xc := range x {
			r[c] += p * xc
		}
	}
}

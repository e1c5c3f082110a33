package tensor

import (
	"fmt"
	"sync"
	"time"

	"github.com/sparse-dl/samo/internal/parallel"
)

// GEMM blocking parameters. The shared-pack pipeline autotunes its (kc, nc)
// panel blocking per shape bucket (see autotune.go); these are the fixed
// ones.
const (
	gemmMR = 4 // micro-kernel rows (A rows per strip)
	// gemmGrain is the minimum C rows per parallel chunk for the saxpy and
	// 4×4 tiled kernels (a chunk streams all of B, so chunks must be big).
	gemmGrain = 8
	// gemmPackGrain is the minimum panel rows per worker in the v2
	// cooperative pack: a row copy is ~nc·4 bytes of pure memcpy, so
	// fine-grained fan-out is all dispatch overhead.
	gemmPackGrain = 32
	// tiledKC blocks the k dimension of the transposed products so a 4-row
	// A strip and 4-row B strip stay L1-resident.
	tiledKC = 512
	// packBufCap sizes pooled panel buffers to the largest packing
	// candidate (512·256 floats = 512 KiB) so one free list serves every
	// autotuned blocking without reallocation.
	packBufCap = 512 * 256
)

// MatMul computes C = A·B for A of shape (m,k) and B of shape (k,n),
// returning a new (m,n) tensor. This is the dense kernel standing in for
// cuBLAS: SAMO's whole design rests on the observation that this path is far
// faster than sparse kernels at DL sparsities, so θ16 stays dense.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := gemmDims(a, b)
	c := New(m, n)
	gemm(c.data, a.data, b.data, m, k, n, false)
	return c
}

// MatMulInto computes C = A·B into an existing (m,n) tensor, avoiding the
// allocation. If accumulate is true it computes C += A·B. The call is
// allocation-free: kernel dispatch, panel packing and parallel fan-out all
// run on pooled state.
func MatMulInto(c, a, b *Tensor, accumulate bool) {
	m, k, n := gemmDims(a, b)
	if c.Len() != m*n {
		panic(fmt.Sprintf("tensor: MatMulInto output has %d elements, want %d", c.Len(), m*n))
	}
	gemm(c.data, a.data, b.data, m, k, n, accumulate)
}

func gemmDims(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k = a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions %d and %d differ", k, b.shape[0]))
	}
	n = b.shape[1]
	return m, k, n
}

// gemmJob carries one matrix product's arguments to the pool workers. Jobs
// and packing buffers are recycled through parallel.Pool free lists so
// kernel dispatch never allocates.
type gemmJob struct {
	c, a, b    []float32
	m, k, n    int
	accumulate bool
}

var gemmJobFree parallel.Pool[gemmJob]

func getGemmJob() *gemmJob { return gemmJobFree.Get() }

func putGemmJob(j *gemmJob) {
	j.c, j.a, j.b = nil, nil, nil
	gemmJobFree.Put(j)
}

var packFree struct {
	mu   sync.Mutex
	list [][]float32
}

func getPackBuf() []float32 {
	packFree.mu.Lock()
	l := len(packFree.list)
	if l == 0 {
		packFree.mu.Unlock()
		return make([]float32, packBufCap)
	}
	b := packFree.list[l-1]
	packFree.list = packFree.list[:l-1]
	packFree.mu.Unlock()
	return b
}

func putPackBuf(b []float32) {
	packFree.mu.Lock()
	packFree.list = append(packFree.list, b)
	packFree.mu.Unlock()
}

// gemmVariant identifies which member of the GEMM family a dispatch (and
// its autotune bucket) belongs to. All three run the same shared-pack
// sweep kernels; they differ only in how the operands are packed into the
// canonical panel layouts.
type gemmVariant uint8

const (
	gemmNN gemmVariant = iota // C = A·B        (forward)
	gemmNT                    // C = A·Bᵀ       (MatMulT, input gradient)
	gemmTN                    // C = Aᵀ·B       (TMatMul, weight gradient)
	gemmVariants
)

// Row invariance — the contract of the two forward products (gemm, gemmT)
// that serve.Engine spends: the bits of a C row are a function of its A row
// and of B alone, never of m, of the worker count, of the autotuner's
// candidate or of which micro-kernel the host selected. Dispatch therefore
// looks at n and k only, which the model fixes, and never at m, which the
// batch does. With n,k ≥ 16 every row takes the shared sweeps, which all
// accumulate k in one pairwise order (`c += a0·b0 + a1·b1`, every kc even)
// whether the row rides a 4-row vector tile, the 1-row vector remainder, the
// Go strip kernel, its scalar ragged-strip tail or the direct-B micro-kernel:
// each is the same sequence of float32 multiplies and adds per C element,
// rounded after every operation. That is why the vector kernel may never use
// a fused multiply-add — one rounding where the Go kernel has two — however
// much faster it would be: the bits would then depend on the host. Below the
// gate every row takes the small-shape kernel, which sums k in plain order
// for every row. Pinned by the row-invariance property of FuzzMatMulInto /
// FuzzMatMulTInto, by TestGEMMRowInvariantServingShapes and, kernel against
// kernel, by TestGEMMVectorKernelMatchesGo.

// gemm dispatches C (+)= A·B over the worker pool: the shared-pack v2
// pipeline with autotuned blocking, or for skinny B (n or k below 16) the
// row-saxpy kernel, whose per-row cost model fits it better.
func gemm(c, a, b []float32, m, k, n int, accumulate bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !accumulate {
			zeroSlice(c[:m*n])
		}
		return
	}
	if n >= 16 && k >= 16 {
		gemmTuned(gemmNN, c, a, b, m, k, n, accumulate)
		return
	}
	j := getGemmJob()
	j.c, j.a, j.b = c, a, b
	j.m, j.k, j.n = m, k, n
	j.accumulate = accumulate
	parallel.Run(m, gemmGrain, j, gemmSaxpyChunk)
	putGemmJob(j)
}

// gemmTuned runs one GEMM-family product through the per-(variant, shape)
// autotuner: frozen buckets take the winning candidate a single atomic
// load away; while a bucket is still probing, each call times one
// candidate blocking (the probe performs the real product, so no work is
// thrown away). Every 512th call on a frozen bucket re-times one candidate
// round-robin, so contaminated startup probes self-correct (see
// internal/autotune).
func gemmTuned(v gemmVariant, c, a, b []float32, m, k, n int, accumulate bool) {
	e := tuneFor(v, m, k, n)
	idx, probe := e.Next()
	cand := tuneCandsFor(v)[idx]
	if !probe {
		gemmV2(v, c, a, b, m, k, n, accumulate, cand)
		return
	}
	t0 := time.Now()
	gemmV2(v, c, a, b, m, k, n, accumulate, cand)
	e.Record(idx, time.Since(t0), m*k*n)
}

// gemmV2Job carries the shared-pack pipeline's per-panel state to the pool
// workers. One job serves a whole gemmV2 call: the caller mutates the panel
// fields between parallel.Run barriers (Run returns only after every chunk
// finished, so workers never observe a mutation mid-panel).
type gemmV2Job struct {
	c, a, b    []float32
	m, k, n    int
	accumulate bool
	pb         []float32 // the one shared packed B panel (nil on direct path)
	pa         []float32 // packed Aᵀ block (gemmTN only; nil otherwise)
	k0, kcur   int       // current panel's k range
	j0, ncur   int       // current panel's n range
	i0, mcur   int       // current mc block's row range (sweep chunks offset by i0)
	kc, nc     int       // blocking (direct path iterates panels itself)
	// A addressing for the sweeps: row i of the effective (m,k) A lives at
	// as[(i-aBase)·aStride + aOff : +kcur]. For gemmNN/gemmNT this is A
	// itself (as=a, aBase=0, aStride=k, aOff=k0); for gemmTN it is the
	// transpose-packed block (as=pa, aBase=i0, aStride=kcur, aOff=0).
	as                   []float32
	aBase, aStride, aOff int
}

var gemmV2JobFree parallel.Pool[gemmV2Job]

// gemmV2 computes C (+)= A·B with the BLIS-style shared-pack pipeline: for
// each kc×nc panel of B the workers first pack it cooperatively — ONCE per
// call, into one process-pooled buffer — then all sweep their disjoint C
// row ranges over it. Packing a panel once per *worker* instead is pure
// duplicated memory traffic as soon as a call fans out; the shared pack
// removes it, which is exactly the win when rows-per-worker is small (the
// Figure-1 FC backward shapes). The panel is packed in 8-wide column strips
// (each strip k-major and contiguous) and swept by the strip kernel, which
// keeps a strip of C in registers across the whole k sweep and streams B
// sequentially: on AVX2 hosts four C rows at a time in YMM accumulators
// (gemm_amd64.s), elsewhere one row in eight scalars. Candidates with
// strip=false skip packing entirely and read B in place — at m = 1 a panel is
// swept once and the pack traffic cannot amortize at all.
//
// Every path accumulates each C element in the same pairwise k order, so
// all candidates remain bitwise-identical (TestGEMMV2CandidatesGolden).
//
// The transposed family (v != gemmNN) runs the SAME panel loop and sweep
// kernel; only the packing differs per operand orientation:
//
//   - gemmNT (C = A·Bᵀ): B is (n,k), so the effective Bᵀ panel is packed by
//     reading B rows along their contiguous k extent and scattering each
//     into one panel column — a near-copy per B row (gemmPackStripNTChunk).
//     A is (m,k) row-major, exactly as in gemmNN.
//   - gemmTN (C = Aᵀ·B): B is (k,n) row-major, exactly as in gemmNN, so the
//     B pack routine is reused verbatim; A is (k,m) and is transpose-packed
//     per (mc,kc) row block into a second pooled buffer the sweep then
//     reads as canonical row-major A (gemmPackATChunk). The row-block loop
//     exists only for this: mc is m unless the block would overflow the
//     pooled buffer.
//
// Because the sweep is shared, the transposed variants inherit the
// bitwise candidate-invariance contract for free: packing relocates
// operand bytes, never reorders the per-element float operations.
//
// Fan-out is sized from work, not rows (gemmWorkGrain): a sweep or direct
// row counts its own multiply-adds, a packed row those of the sweep it
// feeds — a pack fans out only when that sweep would — so a product too
// small to be worth a second core runs inline on the caller instead of
// paying a wake-up per region.
func gemmV2(v gemmVariant, c, a, b []float32, m, k, n int, accumulate bool, cand tuneCand) {
	j := gemmV2JobFree.Get()
	j.c, j.a, j.b = c, a, b
	j.m, j.k, j.n = m, k, n
	j.accumulate = accumulate
	j.kc, j.nc = cand.kc, cand.nc
	if !cand.strip {
		// Direct-B path (gemmNN candidates only: the transposed variants'
		// effective B is not materialized row-major, so their candidate
		// sets are all-pack).
		parallel.Run(m, parallel.WorkGrain(gemmMR, k*n), j, gemmDirectChunk)
		j.c, j.a, j.b = nil, nil, nil
		gemmV2JobFree.Put(j)
		return
	}
	packB := gemmPackStripChunk
	if v == gemmNT {
		packB = gemmPackStripNTChunk
	}
	mc := m
	var pa []float32
	if v == gemmTN {
		if maxMC := packBufCap / cand.kc; mc > maxMC {
			mc = maxMC // keep the packed Aᵀ block inside one pooled buffer
		}
		pa = getPackBuf()
		j.pa = pa
	}
	pb := getPackBuf()
	j.pb = pb
	for i0 := 0; i0 < m; i0 += mc {
		j.i0, j.mcur = i0, min(mc, m-i0)
		for k0 := 0; k0 < k; k0 += cand.kc {
			kcur := min(cand.kc, k-k0)
			j.k0, j.kcur = k0, kcur
			if v == gemmTN {
				parallel.Run(j.mcur, gemmWorkGrain(gemmPackGrain, kcur*n), j, gemmPackATChunk)
				j.as, j.aBase, j.aStride, j.aOff = pa, i0, kcur, 0
			} else {
				j.as, j.aBase, j.aStride, j.aOff = a, 0, k, k0
			}
			for j0 := 0; j0 < n; j0 += cand.nc {
				j.j0, j.ncur = j0, min(cand.nc, n-j0)
				if v == gemmNT {
					// The NT pack fans out over B rows (panel columns), not
					// panel k-rows: that is the operand's contiguous axis.
					parallel.Run(j.ncur, gemmWorkGrain(gemmPackGrain, j.mcur*kcur), j, packB)
				} else {
					parallel.Run(kcur, gemmWorkGrain(gemmPackGrain, j.mcur*j.ncur), j, packB)
				}
				parallel.Run(j.mcur, gemmWorkGrain(gemmMR, kcur*j.ncur), j, gemmStripSweepChunk)
			}
		}
	}
	j.pb = nil
	putPackBuf(pb)
	if pa != nil {
		j.pa = nil
		putPackBuf(pa)
	}
	j.c, j.a, j.b, j.as = nil, nil, nil, nil
	gemmV2JobFree.Put(j)
}

// GEMMKernel names the strip micro-kernel this process selected at start-up:
// "avx2" (gemm_amd64.s) or "go". Both produce the same bits; the name is for
// reading two runs' step times knowing what produced them.
func GEMMKernel() string {
	if gemmVector {
		return "avx2"
	}
	return "go"
}

// gemmWorkGrain is parallel.WorkGrain for the regions of the strip pipeline,
// in the units of the kernel that runs them: WorkGrain's chunk is ≈ 0.1 ms
// of a scalar kernel (6–7 GFLOP/s), which the vector kernel (≈ 45) finishes
// in ≈ 12 µs — below the wake-up the chunk was sized against — so under it
// eight multiply-adds count as one and a chunk carries ≈ 0.1 ms again
// (mlp_sparse_50, 10 interleaved pairs: 24.8 → 21.9 ms/step, 10/10;
// serve_gpt_open_loop unchanged). A grain moves no bit.
func gemmWorkGrain(floor, perItem int) int {
	if gemmVector {
		perItem = max(perItem/8, 1)
	}
	return parallel.WorkGrain(floor, perItem)
}

// gemmPackStripChunk packs panel k-rows [lo,hi) (relative to k0) in the v3
// strip layout: the kc×nc panel is stored as a sequence of 8-wide column
// strips, each strip k-major and contiguous — strip js/8 occupies
// pb[js·kcur : js·kcur + kcur·8], element (kk, jj) at offset kk·8 + jj. The
// strip sweep then streams B strictly sequentially. A ragged final strip
// (ncur not a multiple of 8) keeps stride 8; its tail floats are left
// unwritten and never read. Chunks touch disjoint panel rows.
func gemmPackStripChunk(ctx any, lo, hi int) {
	g := ctx.(*gemmV2Job)
	b, pb := g.b, g.pb
	n, k0, j0, ncur, kcur := g.n, g.k0, g.j0, g.ncur, g.kcur
	for kk := lo; kk < hi; kk++ {
		brow := b[(k0+kk)*n+j0 : (k0+kk)*n+j0+ncur]
		for js := 0; js < ncur; js += 8 {
			w := min(8, ncur-js)
			copy(pb[js*kcur+kk*8:js*kcur+kk*8+w], brow[js:js+w])
		}
	}
}

// gemmPackStripNTChunk packs panel columns [lo,hi) (relative to j0) of the
// effective Bᵀ panel for gemmNT: element (kk, jj) of the panel is
// B[(j0+jj)·k + k0+kk], so each B row is read contiguously along its k
// extent — a near-copy — and lands in strip jj/8 at within-strip offset
// jj%8 (see gemmPackStripChunk for the strip layout), scattering with
// stride 8. Chunks touch disjoint panel columns.
func gemmPackStripNTChunk(ctx any, lo, hi int) {
	g := ctx.(*gemmV2Job)
	b, pb := g.b, g.pb
	k, k0, j0, kcur := g.k, g.k0, g.j0, g.kcur
	for jj := lo; jj < hi; jj++ {
		brow := b[(j0+jj)*k+k0 : (j0+jj)*k+k0+kcur]
		ps := pb[(jj&^7)*kcur+(jj&7):]
		for kk, v := range brow {
			ps[kk*8] = v
		}
	}
}

// gemmPackATChunk transpose-packs rows [lo,hi) (relative to i0) of the
// current (mc,kc) block of the effective Aᵀ for gemmTN:
// pa[i'·kcur + kk] = a[(k0+kk)·m + i0+i']. The pack walks 32×32 tiles
// (like TransposeInto): within a tile the inner loop reads a source row of
// A contiguously and the 32 destination rows it scatters into stay
// cache-resident, so each source cache line is loaded once — the previous
// per-element gather walked down A's columns and paid a cache line per
// element, a constant that dominated the pack at kc=512 on small-n
// products. A pure relocation either way: the packed bytes, and therefore
// the product, are bitwise-unchanged (pinned by TestGemmPackATTiledGolden).
// Chunks write disjoint packed rows.
func gemmPackATChunk(ctx any, lo, hi int) {
	g := ctx.(*gemmV2Job)
	a, pa := g.a, g.pa
	m, k0, kcur, i0 := g.m, g.k0, g.kcur, g.i0
	const tile = 32
	for ii0 := lo; ii0 < hi; ii0 += tile {
		ii1 := min(ii0+tile, hi)
		for kk0 := 0; kk0 < kcur; kk0 += tile {
			kk1 := min(kk0+tile, kcur)
			for kk := kk0; kk < kk1; kk++ {
				src := a[(k0+kk)*m+i0+ii0 : (k0+kk)*m+i0+ii1]
				dst := pa[ii0*kcur+kk:]
				for j, v := range src {
					dst[j*kcur] = v
				}
			}
		}
	}
}

// gemmStripSweepChunk updates C rows [lo,hi) of the current row block
// (absolute rows i0+lo..i0+hi), cols [j0,j0+ncur) from the strip-packed
// panel: per 8-wide column strip the accumulators live in registers across
// the whole k sweep and C round-trips through memory once per panel, while
// B streams sequentially from the strip. A rows come from the job's
// generalized A addressing (A in place, or the packed Aᵀ block for gemmTN).
// The accumulators are seeded from C, or from zero on the first k panel of
// a non-accumulating product (each C band is touched by exactly one chunk
// per panel, so nothing races).
//
// With the vector kernel selected, rows go four at a time through
// gemmStrip4x8AVX2 and the chunk's last m mod 4 rows one at a time through
// gemmStrip1x8AVX2; otherwise every row goes through gemmStrip8. The ragged
// last strip (ncur mod 8 columns) is always gemmStripTail's. The assembly
// checks no bound: each call is handed pointers into slices cut here to
// exactly the extent it touches (a tile's C rows, its A rows, one strip).
//
// Bitwise contract: every kernel updates an accumulator with the same
// `c += a0·b0 + a1·b1` pairwise expression, one float32 rounding per
// operation, so each element sees the identical sequence of operations
// whichever kernel, tile row or lane it rides — staging the partial sum in a
// register instead of memory does not change its value.
func gemmStripSweepChunk(ctx any, lo, hi int) {
	g := ctx.(*gemmV2Job)
	c, as, pb := g.c, g.as, g.pb
	n := g.n
	kcur, j0, ncur := g.kcur, g.j0, g.ncur
	aStride := g.aStride
	aOff := (lo+g.i0-g.aBase)*aStride + g.aOff
	lo, hi = lo+g.i0, hi+g.i0
	seed := g.accumulate || g.k0 > 0
	vec := gemmVector
	full := ncur &^ 7 // columns in whole strips
	i := lo
	if vec {
		for ; i+gemmMR <= hi; i += gemmMR {
			ct := c[i*n+j0 : (i+gemmMR-1)*n+j0+ncur]
			at := as[aOff : aOff+(gemmMR-1)*aStride+kcur]
			aOff += gemmMR * aStride
			for js := 0; js < full; js += 8 {
				bs := pb[js*kcur : (js+8)*kcur]
				gemmStrip4x8AVX2(&ct[js], n, &at[0], aStride, &bs[0], kcur, seed)
			}
			if full < ncur {
				for r := 0; r < gemmMR; r++ {
					gemmStripTail(ct[r*n+full:r*n+ncur], at[r*aStride:r*aStride+kcur], pb[full*kcur:], kcur, seed)
				}
			}
		}
	}
	for ; i < hi; i++ {
		ai := as[aOff : aOff+kcur]
		aOff += aStride
		ci := c[i*n+j0 : i*n+j0+ncur]
		for js := 0; js < full; js += 8 {
			bs := pb[js*kcur : (js+8)*kcur]
			if vec {
				gemmStrip1x8AVX2(&ci[js : js+8][0], &ai[0], &bs[0], kcur, seed)
			} else {
				gemmStrip8(ci[js:js+8], ai, bs, kcur, seed)
			}
		}
		if full < ncur {
			gemmStripTail(ci[full:], ai, pb[full*kcur:], kcur, seed)
		}
	}
}

// gemmStrip8 updates one C row's 8-wide column strip from a k-major strip
// of the packed panel: the Go strip kernel, the only one on hosts without
// AVX2 and the oracle the vector kernels are pinned to. The 2-wide k unroll
// matches gemmMicro4's pairwise association exactly; the eight accumulators
// stay in registers.
func gemmStrip8(ci, ai []float32, bs []float32, kcur int, seed bool) {
	var c0, c1, c2, c3, c4, c5, c6, c7 float32
	_ = ci[7]
	if seed {
		c0, c1, c2, c3 = ci[0], ci[1], ci[2], ci[3]
		c4, c5, c6, c7 = ci[4], ci[5], ci[6], ci[7]
	}
	kk := 0
	for ; kk+2 <= kcur; kk += 2 {
		bp := bs[kk*8 : kk*8+16]
		a0, a1 := ai[kk], ai[kk+1]
		c0 += a0*bp[0] + a1*bp[8]
		c1 += a0*bp[1] + a1*bp[9]
		c2 += a0*bp[2] + a1*bp[10]
		c3 += a0*bp[3] + a1*bp[11]
		c4 += a0*bp[4] + a1*bp[12]
		c5 += a0*bp[5] + a1*bp[13]
		c6 += a0*bp[6] + a1*bp[14]
		c7 += a0*bp[7] + a1*bp[15]
	}
	if kk < kcur {
		bp := bs[kk*8 : kk*8+8]
		a0 := ai[kk]
		c0 += a0 * bp[0]
		c1 += a0 * bp[1]
		c2 += a0 * bp[2]
		c3 += a0 * bp[3]
		c4 += a0 * bp[4]
		c5 += a0 * bp[5]
		c6 += a0 * bp[6]
		c7 += a0 * bp[7]
	}
	ci[0], ci[1], ci[2], ci[3] = c0, c1, c2, c3
	ci[4], ci[5], ci[6], ci[7] = c4, c5, c6, c7
}

// gemmStripTail is the ragged final strip (width 1..7) of gemmStrip8; the
// strip keeps stride 8 in the packed buffer, only width values are read.
func gemmStripTail(ci, ai []float32, bs []float32, kcur int, seed bool) {
	var acc [8]float32
	w := len(ci)
	if seed {
		copy(acc[:w], ci)
	}
	kk := 0
	for ; kk+2 <= kcur; kk += 2 {
		bp := bs[kk*8 : kk*8+8+w]
		a0, a1 := ai[kk], ai[kk+1]
		for j := 0; j < w; j++ {
			acc[j] += a0*bp[j] + a1*bp[8+j]
		}
	}
	if kk < kcur {
		bp := bs[kk*8 : kk*8+w]
		a0 := ai[kk]
		for j := 0; j < w; j++ {
			acc[j] += a0 * bp[j]
		}
	}
	copy(ci, acc[:w])
}

// gemmDirectChunk computes C rows [lo,hi) reading B in place (no panel
// packing): the micro-kernel's inner loops stay contiguous along B rows,
// only the row stride changes from ncur to n. Each chunk runs the full
// blocked panel loop independently — there is no shared state, so the rows
// fan out at micro-kernel granularity.
func gemmDirectChunk(ctx any, lo, hi int) {
	g := ctx.(*gemmV2Job)
	c, a, b := g.c, g.a, g.b
	k, n := g.k, g.n
	if !g.accumulate {
		zeroSlice(c[lo*n : hi*n])
	}
	for k0 := 0; k0 < k; k0 += g.kc {
		kcur := min(g.kc, k-k0)
		for j0 := 0; j0 < n; j0 += g.nc {
			ncur := min(g.nc, n-j0)
			i := lo
			for ; i+gemmMR <= hi; i += gemmMR {
				gemmMicro4(c, a, b, i*k+k0, k, k0*n+j0, n, i, n, kcur, j0, ncur)
			}
			for ; i < hi; i++ {
				gemmMicro1(c, a, b, i*k+k0, k, k0*n+j0, n, i, n, kcur, j0, ncur)
			}
		}
	}
}

// gemmMicro4 is the direct-B path's micro-kernel: it updates C rows i..i+3,
// cols [j0,j0+ncur) from kcur rows of B read in place, starting at bp[bOff]
// with row stride bStride (bOff=k0·n+j0, bStride=n), the inner loop
// contiguous along a B row. A rows likewise start at a[aOff] with row stride
// aStride (aOff=i·k+k0, aStride=k). The 2-wide k unroll halves C read/write
// traffic per flop and is the pairwise k association every strip kernel
// reproduces; the four A scalars per k-step live in registers across the j
// loop.
func gemmMicro4(c, a, bp []float32, aOff, aStride, bOff, bStride, i, n, kcur, j0, ncur int) {
	ci0 := c[i*n+j0 : i*n+j0+ncur]
	ci1 := c[(i+1)*n+j0 : (i+1)*n+j0+ncur]
	ci2 := c[(i+2)*n+j0 : (i+2)*n+j0+ncur]
	ci3 := c[(i+3)*n+j0 : (i+3)*n+j0+ncur]
	ai0 := a[aOff : aOff+kcur]
	ai1 := a[aOff+aStride : aOff+aStride+kcur]
	ai2 := a[aOff+2*aStride : aOff+2*aStride+kcur]
	ai3 := a[aOff+3*aStride : aOff+3*aStride+kcur]
	kk := 0
	for ; kk+2 <= kcur; kk += 2 {
		o := bOff + kk*bStride
		b0 := bp[o : o+ncur]
		b1 := bp[o+bStride : o+bStride+ncur]
		a00, a01 := ai0[kk], ai0[kk+1]
		a10, a11 := ai1[kk], ai1[kk+1]
		a20, a21 := ai2[kk], ai2[kk+1]
		a30, a31 := ai3[kk], ai3[kk+1]
		_ = b1[len(b0)-1]
		_ = ci0[len(b0)-1]
		_ = ci1[len(b0)-1]
		_ = ci2[len(b0)-1]
		_ = ci3[len(b0)-1]
		for j, v0 := range b0 {
			v1 := b1[j]
			ci0[j] += a00*v0 + a01*v1
			ci1[j] += a10*v0 + a11*v1
			ci2[j] += a20*v0 + a21*v1
			ci3[j] += a30*v0 + a31*v1
		}
	}
	if kk < kcur {
		o := bOff + kk*bStride
		b0 := bp[o : o+ncur]
		a0, a1, a2, a3 := ai0[kk], ai1[kk], ai2[kk], ai3[kk]
		_ = ci0[len(b0)-1]
		_ = ci1[len(b0)-1]
		_ = ci2[len(b0)-1]
		_ = ci3[len(b0)-1]
		for j, v := range b0 {
			ci0[j] += a0 * v
			ci1[j] += a1 * v
			ci2[j] += a2 * v
			ci3[j] += a3 * v
		}
	}
}

// gemmMicro1 is the single-row remainder of gemmMicro4.
func gemmMicro1(c, a, bp []float32, aOff, aStride, bOff, bStride, i, n, kcur, j0, ncur int) {
	ci := c[i*n+j0 : i*n+j0+ncur]
	ai := a[aOff : aOff+kcur]
	kk := 0
	for ; kk+2 <= kcur; kk += 2 {
		o := bOff + kk*bStride
		b0 := bp[o : o+ncur]
		b1 := bp[o+bStride : o+bStride+ncur]
		a0, a1 := ai[kk], ai[kk+1]
		_ = b1[len(b0)-1]
		_ = ci[len(b0)-1]
		for j, v0 := range b0 {
			ci[j] += a0*v0 + a1*b1[j]
		}
	}
	if kk < kcur {
		o := bOff + kk*bStride
		b0 := bp[o : o+ncur]
		a0 := ai[kk]
		_ = ci[len(b0)-1]
		for j, v := range b0 {
			ci[j] += a0 * v
		}
	}
}

// gemmSaxpyChunk is the seed kernel, kept for small/skinny shapes (and as
// the benchmark baseline): k-blocked i-k-j loops whose inner loop is a
// saxpy over contiguous rows of B and C.
func gemmSaxpyChunk(ctx any, lo, hi int) {
	g := ctx.(*gemmJob)
	c, a, b := g.c, g.a, g.b
	k, n := g.k, g.n
	if !g.accumulate {
		zeroSlice(c[lo*n : hi*n])
	}
	const blockM, blockK = 64, 128
	for i0 := lo; i0 < hi; i0 += blockM {
		i1 := min(i0+blockM, hi)
		for k0 := 0; k0 < k; k0 += blockK {
			k1 := min(k0+blockK, k)
			for i := i0; i < i1; i++ {
				ci := c[i*n : (i+1)*n]
				ai := a[i*k : (i+1)*k]
				for kk := k0; kk < k1; kk++ {
					av := ai[kk]
					if av == 0 {
						continue
					}
					saxpy(ci, b[kk*n:kk*n+n], av)
				}
			}
		}
	}
}

// saxpy computes ci += av * bk elementwise; split out so the compiler keeps
// the loop tight and bounds-check eliminated.
func saxpy(ci, bk []float32, av float32) {
	_ = ci[len(bk)-1]
	for j := range bk {
		ci[j] += av * bk[j]
	}
}

func zeroSlice(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// MatMulT computes C = A·Bᵀ for A (m,k) and B (n,k) without materializing
// the transpose. Used for weight-gradient and input-gradient passes.
func MatMulT(a, b *Tensor) *Tensor {
	m, k, n := gemmTDims(a, b)
	c := New(m, n)
	gemmT(c.data, a.data, b.data, m, k, n, false)
	return c
}

// MatMulTInto computes C (+)= A·Bᵀ into an existing (m,n) tensor without
// allocating.
func MatMulTInto(c, a, b *Tensor, accumulate bool) {
	m, k, n := gemmTDims(a, b)
	if c.Len() != m*n {
		panic(fmt.Sprintf("tensor: MatMulTInto output has %d elements, want %d", c.Len(), m*n))
	}
	gemmT(c.data, a.data, b.data, m, k, n, accumulate)
}

func gemmTDims(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT requires rank-2 tensors")
	}
	m, k = a.shape[0], a.shape[1]
	n = b.shape[0]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulT inner dimensions %d and %d differ", k, b.shape[1]))
	}
	return m, k, n
}

// gemmT dispatches C (+)= A·Bᵀ: the shared-pack v2/v3 pipeline with
// per-shape autotuned blocking (the gemmNT variant transpose-packs B
// panels), or for skinny B (n or k below 16) the PR-1 4×4 register tiles,
// whose tile setup cost fits it better. Row-invariant like gemm: m never
// selects the kernel.
func gemmT(c, a, b []float32, m, k, n int, accumulate bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !accumulate {
			zeroSlice(c[:m*n])
		}
		return
	}
	if n >= 16 && k >= 16 {
		gemmTuned(gemmNT, c, a, b, m, k, n, accumulate)
		return
	}
	j := getGemmJob()
	j.c, j.a, j.b = c, a, b
	j.m, j.k, j.n = m, k, n
	j.accumulate = accumulate
	parallel.Run(m, gemmGrain, j, gemmTChunk)
	putGemmJob(j)
}

// gemmTChunk computes C rows [lo,hi) of C = A·Bᵀ with 4×4 register tiles:
// both operands are read along contiguous k-rows, 16 fused multiply-adds
// per 8 loads (the seed's dot kernel did 1 per 2). k is blocked so the
// four A rows and four B rows of a tile stay L1-resident. Kept as the
// small-shape path and the benchmark baseline the autotuned pipeline is
// gated against (BenchmarkMatMulT/tiled).
func gemmTChunk(ctx any, lo, hi int) {
	g := ctx.(*gemmJob)
	c, a, b := g.c, g.a, g.b
	k, n := g.k, g.n
	if !g.accumulate {
		zeroSlice(c[lo*n : hi*n])
	}
	for k0 := 0; k0 < k; k0 += tiledKC {
		k1 := min(k0+tiledKC, k)
		kcur := k1 - k0
		i := lo
		for ; i+4 <= hi; i += 4 {
			ai0 := a[i*k+k0 : i*k+k0+kcur]
			ai1 := a[(i+1)*k+k0 : (i+1)*k+k0+kcur]
			ai2 := a[(i+2)*k+k0 : (i+2)*k+k0+kcur]
			ai3 := a[(i+3)*k+k0 : (i+3)*k+k0+kcur]
			jj := 0
			for ; jj+4 <= n; jj += 4 {
				bj0 := b[jj*k+k0 : jj*k+k0+kcur]
				bj1 := b[(jj+1)*k+k0 : (jj+1)*k+k0+kcur]
				bj2 := b[(jj+2)*k+k0 : (jj+2)*k+k0+kcur]
				bj3 := b[(jj+3)*k+k0 : (jj+3)*k+k0+kcur]
				var s00, s01, s02, s03 float32
				var s10, s11, s12, s13 float32
				var s20, s21, s22, s23 float32
				var s30, s31, s32, s33 float32
				_ = bj0[len(ai0)-1]
				_ = bj1[len(ai0)-1]
				_ = bj2[len(ai0)-1]
				_ = bj3[len(ai0)-1]
				_ = ai1[len(ai0)-1]
				_ = ai2[len(ai0)-1]
				_ = ai3[len(ai0)-1]
				for kk, a0 := range ai0 {
					b0, b1, b2, b3 := bj0[kk], bj1[kk], bj2[kk], bj3[kk]
					a1, a2, a3 := ai1[kk], ai2[kk], ai3[kk]
					s00 += a0 * b0
					s01 += a0 * b1
					s02 += a0 * b2
					s03 += a0 * b3
					s10 += a1 * b0
					s11 += a1 * b1
					s12 += a1 * b2
					s13 += a1 * b3
					s20 += a2 * b0
					s21 += a2 * b1
					s22 += a2 * b2
					s23 += a2 * b3
					s30 += a3 * b0
					s31 += a3 * b1
					s32 += a3 * b2
					s33 += a3 * b3
				}
				c[i*n+jj] += s00
				c[i*n+jj+1] += s01
				c[i*n+jj+2] += s02
				c[i*n+jj+3] += s03
				c[(i+1)*n+jj] += s10
				c[(i+1)*n+jj+1] += s11
				c[(i+1)*n+jj+2] += s12
				c[(i+1)*n+jj+3] += s13
				c[(i+2)*n+jj] += s20
				c[(i+2)*n+jj+1] += s21
				c[(i+2)*n+jj+2] += s22
				c[(i+2)*n+jj+3] += s23
				c[(i+3)*n+jj] += s30
				c[(i+3)*n+jj+1] += s31
				c[(i+3)*n+jj+2] += s32
				c[(i+3)*n+jj+3] += s33
			}
			for ; jj < n; jj++ {
				bj := b[jj*k+k0 : jj*k+k0+kcur]
				c[i*n+jj] += dot(ai0, bj)
				c[(i+1)*n+jj] += dot(ai1, bj)
				c[(i+2)*n+jj] += dot(ai2, bj)
				c[(i+3)*n+jj] += dot(ai3, bj)
			}
		}
		for ; i < hi; i++ {
			ai := a[i*k+k0 : i*k+k0+kcur]
			for jj := 0; jj < n; jj++ {
				c[i*n+jj] += dot(ai, b[jj*k+k0:jj*k+k0+kcur])
			}
		}
	}
}

// TMatMul computes C = Aᵀ·B for A (k,m) and B (k,n) without materializing
// the transpose.
func TMatMul(a, b *Tensor) *Tensor {
	k, m, n := tGemmDims(a, b)
	c := New(m, n)
	tGemm(c.data, a.data, b.data, m, k, n, false)
	return c
}

// TMatMulInto computes C (+)= Aᵀ·B into an existing (m,n) tensor without
// allocating.
func TMatMulInto(c, a, b *Tensor, accumulate bool) {
	k, m, n := tGemmDims(a, b)
	if c.Len() != m*n {
		panic(fmt.Sprintf("tensor: TMatMulInto output has %d elements, want %d", c.Len(), m*n))
	}
	tGemm(c.data, a.data, b.data, m, k, n, accumulate)
}

func tGemmDims(a, b *Tensor) (k, m, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: TMatMul requires rank-2 tensors")
	}
	k, m = a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: TMatMul inner dimensions %d and %d differ", k, b.shape[0]))
	}
	n = b.shape[1]
	return k, m, n
}

// tGemm dispatches C (+)= Aᵀ·B. Large shapes run the shared-pack v2/v3
// pipeline with per-shape autotuned blocking (the gemmTN variant
// transpose-packs A blocks; B packs exactly as the forward product); small
// or skinny shapes keep the PR-1 4×4 register tiles.
func tGemm(c, a, b []float32, m, k, n int, accumulate bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !accumulate {
			zeroSlice(c[:m*n])
		}
		return
	}
	if m >= gemmMR && n >= 16 && k >= 16 {
		gemmTuned(gemmTN, c, a, b, m, k, n, accumulate)
		return
	}
	j := getGemmJob()
	j.c, j.a, j.b = c, a, b
	j.m, j.k, j.n = m, k, n
	j.accumulate = accumulate
	parallel.Run(m, gemmGrain, j, tGemmChunk)
	putGemmJob(j)
}

// tGemmChunk computes C rows [lo,hi) of C = Aᵀ·B with 4×4 register tiles.
// For each k step the tile loads 4 contiguous A values and 4 contiguous B
// values (both along the rows of the k-major operands) and performs 16
// fused multiply-adds; k is blocked so a tile's A column slab stays cached
// across the j sweep. Kept as the small-shape path and the benchmark
// baseline the autotuned pipeline is gated against (BenchmarkTMatMul/tiled).
func tGemmChunk(ctx any, lo, hi int) {
	g := ctx.(*gemmJob)
	c, a, b := g.c, g.a, g.b
	k, n := g.k, g.n
	m := g.m
	if !g.accumulate {
		zeroSlice(c[lo*n : hi*n])
	}
	for k0 := 0; k0 < k; k0 += tiledKC {
		k1 := min(k0+tiledKC, k)
		i := lo
		for ; i+4 <= hi; i += 4 {
			jj := 0
			for ; jj+4 <= n; jj += 4 {
				var s00, s01, s02, s03 float32
				var s10, s11, s12, s13 float32
				var s20, s21, s22, s23 float32
				var s30, s31, s32, s33 float32
				for kk := k0; kk < k1; kk++ {
					ar := a[kk*m+i : kk*m+i+4]
					br := b[kk*n+jj : kk*n+jj+4]
					a0, a1, a2, a3 := ar[0], ar[1], ar[2], ar[3]
					b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
					s00 += a0 * b0
					s01 += a0 * b1
					s02 += a0 * b2
					s03 += a0 * b3
					s10 += a1 * b0
					s11 += a1 * b1
					s12 += a1 * b2
					s13 += a1 * b3
					s20 += a2 * b0
					s21 += a2 * b1
					s22 += a2 * b2
					s23 += a2 * b3
					s30 += a3 * b0
					s31 += a3 * b1
					s32 += a3 * b2
					s33 += a3 * b3
				}
				c[i*n+jj] += s00
				c[i*n+jj+1] += s01
				c[i*n+jj+2] += s02
				c[i*n+jj+3] += s03
				c[(i+1)*n+jj] += s10
				c[(i+1)*n+jj+1] += s11
				c[(i+1)*n+jj+2] += s12
				c[(i+1)*n+jj+3] += s13
				c[(i+2)*n+jj] += s20
				c[(i+2)*n+jj+1] += s21
				c[(i+2)*n+jj+2] += s22
				c[(i+2)*n+jj+3] += s23
				c[(i+3)*n+jj] += s30
				c[(i+3)*n+jj+1] += s31
				c[(i+3)*n+jj+2] += s32
				c[(i+3)*n+jj+3] += s33
			}
			for ; jj < n; jj++ {
				var s0, s1, s2, s3 float32
				for kk := k0; kk < k1; kk++ {
					ar := a[kk*m+i : kk*m+i+4]
					bv := b[kk*n+jj]
					s0 += ar[0] * bv
					s1 += ar[1] * bv
					s2 += ar[2] * bv
					s3 += ar[3] * bv
				}
				c[i*n+jj] += s0
				c[(i+1)*n+jj] += s1
				c[(i+2)*n+jj] += s2
				c[(i+3)*n+jj] += s3
			}
		}
		for ; i < hi; i++ {
			for jj := 0; jj < n; jj++ {
				var s float32
				for kk := k0; kk < k1; kk++ {
					s += a[kk*m+i] * b[kk*n+jj]
				}
				c[i*n+jj] += s
			}
		}
	}
}

func dot(a, b []float32) float32 {
	var s float32
	_ = b[len(a)-1]
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Transpose returns a new tensor that is the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires rank 2")
	}
	t := New(a.shape[1], a.shape[0])
	TransposeInto(t, a)
	return t
}

// TransposeInto writes the transpose of rank-2 a into t (shape (n,m) for a
// (m,n)) without allocating, parallelized over row tiles.
func TransposeInto(t, a *Tensor) {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires rank 2")
	}
	m, n := a.shape[0], a.shape[1]
	if t.Len() != m*n {
		panic(fmt.Sprintf("tensor: TransposeInto output has %d elements, want %d", t.Len(), m*n))
	}
	j := getGemmJob()
	j.c, j.a = t.data, a.data
	j.m, j.n = m, n
	// Parallel over 32-row tiles: each chunk writes disjoint t columns.
	parallel.Run((m+transTile-1)/transTile, 1, j, transposeChunk)
	putGemmJob(j)
}

const transTile = 32

func transposeChunk(ctx any, lo, hi int) {
	g := ctx.(*gemmJob)
	t, a := g.c, g.a
	m, n := g.m, g.n
	for ti := lo; ti < hi; ti++ {
		i0 := ti * transTile
		i1 := min(i0+transTile, m)
		for j0 := 0; j0 < n; j0 += transTile {
			j1 := min(j0+transTile, n)
			for i := i0; i < i1; i++ {
				for j := j0; j < j1; j++ {
					t[j*m+i] = a[i*n+j]
				}
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

package sparse

import (
	"fmt"
	"math"

	"github.com/sparse-dl/samo/internal/parallel"
	"github.com/sparse-dl/samo/internal/tensor"
)

// CSR is a compressed-sparse-row matrix. It backs the Sputnik-style sparse
// compute baseline: the paper integrates Sputnik's spMM/SDDMM into AxoNN to
// show that computing sparse is slower than computing dense at DL sparsities,
// which is precisely why SAMO compresses *storage* but not *compute*.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Val        []float32
}

// CSRFromIndex builds the (rows, cols) CSR of a dense row-major matrix
// holding exactly the indexed entries (stored zeros at indexed positions are
// kept: the pattern is the index, not the values). Ascending ids are
// row-major order, so the nonzeros keep the index's own order — the order of
// every SAMO state vector over the same matrix — and each row's columns
// ascend. Sparsify builds a pruned FC weight's (in, out) CSR with it.
func CSRFromIndex(ix *Index, dense []float32, rows, cols int) *CSR {
	if rows*cols != ix.FullLen() || len(dense) != ix.FullLen() {
		panic(fmt.Sprintf("sparse: CSRFromIndex %dx%d over %d values, index of %d",
			rows, cols, len(dense), ix.FullLen()))
	}
	nnz := ix.NNZ()
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1),
		ColIdx: make([]int32, nnz), Val: make([]float32, nnz)}
	for p, id := range ix.IDs() {
		m.RowPtr[id/int32(cols)+1]++
		m.ColIdx[p] = id % int32(cols)
		m.Val[p] = dense[id]
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// Dense materializes the matrix as a dense tensor.
func (m *CSR) Dense() *tensor.Tensor {
	t := tensor.New(m.Rows, m.Cols)
	d := t.Data()
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			d[i*m.Cols+int(m.ColIdx[p])] = m.Val[p]
		}
	}
	return t
}

// csrRowGrain returns the minimum CSR rows per parallel chunk so that one
// chunk carries at least ixGrain scalar operations — the same memory-bound
// rationale as the gather/scatter loops: these kernels stream values and
// indices with almost no arithmetic per byte, so chunks below that are all
// dispatch overhead. work is the kernel's total scalar-op count (nnz·n for
// SpMM, nnz·k for SDDMM); the per-row grain is just work spread back over
// the rows.
func csrRowGrain(rows, work int) int {
	if rows <= 0 || work <= 0 {
		return 1
	}
	g := ixGrain * rows / work
	if g < 1 {
		return 1
	}
	return g
}

// csrVector reports whether SpMMᵀ, SpMM and SDDMM run the AVX2 kernels of
// csr_amd64.s. It is internal/tensor's start-up probe (tensor.HostAVX2), so
// the process asks the CPU once and nothing a user sets chooses it. The Go
// chains in spmmtChunk, tspmmChunk and sddmmChunk stay as the path of every
// other host (and of the SpMMs' n mod 8 batch rows), and as the oracle the
// vector kernels are pinned to bit for bit. A variable so tests can force
// the Go chains.
var csrVector = tensor.HostAVX2()

// csrJob carries one sparse kernel's arguments to the worker pool; pooled
// so the sparse training and baseline paths dispatch without allocating
// closures. scratch stays with the job across uses: the sample-major
// SpMMs' transposed operands.
type csrJob struct {
	m          *CSR
	a, b       []float32
	x          []float32 // sddmmWinChunk's batch-major operand
	out        []float32
	k, n       int
	accumulate bool
	scratch    *tensor.Arena
}

var csrJobFree parallel.Pool[csrJob]

func getCSRJob() *csrJob { return csrJobFree.Get() }

func putCSRJob(j *csrJob) {
	j.m, j.a, j.b, j.x, j.out = nil, nil, nil, nil, nil
	csrJobFree.Put(j)
}

// sddmmChunk computes the sampled dots of S rows [lo,hi). Each output is one
// chain out[p] = Σ_x A[i,x]·B[col[p],x] summed in x order, rounded after
// every multiply and every add, and is owned by its row's chunk. With the
// vector kernel a row's nonzeros go sixteen at a time through
// sddmmLanes16AVX2 — sixteen such chains side by side, their B elements
// gathered by column index — which hides the add latency a lone chain waits
// on without moving a bit; otherwise each nonzero runs the Go chain below.
// (Sixteen lanes in two accumulators measured 1.1–1.3× four interleaved Go
// chains; eight lanes and 32 lanes were slower.) The gather takes 32-bit
// element offsets, so a B beyond 2³¹ elements runs the Go chain.
func sddmmChunk(ctx any, lo, hi int) {
	g := ctx.(*csrJob)
	m, ad, bd, k := g.m, g.a, g.b, g.k
	out, acc := g.out, g.accumulate
	vec := csrVector && k > 0 && len(bd) <= math.MaxInt32
	var idx [16]int32
	var sum [16]float32
	for i := lo; i < hi; i++ {
		ai := ad[i*k : (i+1)*k]
		p, p1 := int(m.RowPtr[i]), int(m.RowPtr[i+1])
		for vec && p < p1 {
			lanes := min(16, p1-p)
			for l, c := range m.ColIdx[p : p+lanes] {
				if uint(c) >= uint(m.Cols) {
					panic(fmt.Sprintf("sparse: CSR row %d has a column index outside [0, %d)", i, m.Cols))
				}
				idx[l] = c * int32(k)
			}
			clear(idx[lanes:])
			sddmmLanes16AVX2(&sum, &ai[0], &bd[0], &idx, k)
			o := out[p : p+lanes]
			if acc {
				for l := range o {
					o[l] += sum[l]
				}
			} else {
				copy(o, sum[:lanes])
			}
			p += lanes
		}
		for ; p < p1; p++ {
			bj := bd[int(m.ColIdx[p])*k : int(m.ColIdx[p])*k+k]
			var s float32
			for x := range ai {
				s += ai[x] * bj[x]
			}
			if acc {
				out[p] += s
			} else {
				out[p] = s
			}
		}
	}
}

// spmmtChunk computes C columns [lo,hi) — one per sparse row j — of
// C = B·Sᵀ from the feature-major Bᵀ (k, n). Every C element is one chain
// C[i,j] = Σ_p val[p]·Bᵀ[col[p],i] summed in the CSR's p order, rounded
// after every multiply and every add, and has a single owner, so the kernel
// is bitwise-identical at every worker count. With the vector kernel the
// batch rows go 48, 32 or 8 at a time through the AVX2 column kernels —
// lanes across the batch, one chain per lane — batch block outermost, so the
// Bᵀ slab a block reads stays cache-resident across the chunk's sparse rows.
// The n mod 8 rows left over, and every row on other hosts, run the Go chain
// below, which is the same sequence one output at a time.
func spmmtChunk(ctx any, lo, hi int) {
	g := ctx.(*csrJob)
	m, bt, c, n := g.m, g.b, g.out, g.n
	ldc, k := m.Rows, m.Cols
	i := 0
	if csrVector && len(bt) > 0 {
		for n-i >= 8 {
			w, kern := 8, spmmtCols8AVX2
			if n-i >= 48 {
				w, kern = 48, spmmtCols48AVX2
			} else if n-i >= 32 {
				w, kern = 32, spmmtCols32AVX2
			}
			for j := lo; j < hi; j++ {
				p0, p1 := m.RowPtr[j], m.RowPtr[j+1]
				cj := c[i*ldc+j : (i+w-1)*ldc+j+1]
				if !kern(&cj[0], ldc, &bt[i], n, k, m.Val[p0:p1], m.ColIdx[p0:p1]) {
					panic(fmt.Sprintf("sparse: CSR row %d has a column index outside [0, %d)", j, k))
				}
			}
			i += w
		}
	}
	for j := lo; j < hi; j++ {
		p0, p1 := m.RowPtr[j], m.RowPtr[j+1]
		val, col := m.Val[p0:p1], m.ColIdx[p0:p1]
		for ii := i; ii < n; ii++ {
			var s float32
			for q, cq := range col {
				s += val[q] * bt[int(cq)*n+ii]
			}
			c[ii*ldc+j] = s
		}
	}
}

// SpMMTInto computes C = B·Sᵀ for dense B (n, k) and sparse S (rows, k) —
// the transposed-CSR SpMM — into a caller-provided (n, rows) tensor without
// allocating. With S an FC weight W stored (in, out), it is the input
// gradient dx = dy·Wᵀ in sample-major form. The kernel reads B
// feature-major, so B is transposed into pooled scratch first; a caller
// that already holds Bᵀ calls TSpMMTInto instead.
func (m *CSR) SpMMTInto(c, b *tensor.Tensor) {
	if b.Rank() != 2 || b.Dim(1) != m.Cols {
		panic(fmt.Sprintf("sparse: SpMMT dims %vx(%d,%d)ᵀ", b.Shape(), m.Rows, m.Cols))
	}
	j := getCSRJob()
	if j.scratch == nil {
		j.scratch = tensor.NewArena()
	}
	bt := j.scratch.Get(m.Cols, b.Dim(0))
	tensor.TransposeInto(bt, b)
	m.spmmt(j, c, bt)
	j.scratch.Reset()
	putCSRJob(j)
}

// TSpMMTInto computes C = B·Sᵀ like SpMMTInto, from B's transpose bt (k, n)
// — the feature-major operand the kernel reads — into a caller-provided
// (n, rows) tensor without allocating. nn.Linear's backward over a CSR
// weight W (in, out) calls it with the dyᵀ its SDDMM reads anyway, and it
// writes the input gradient dx = dy·Wᵀ straight into (n, in). Parallel over
// S rows (the columns of C): each output has a single owner and the CSR's
// fixed p order, so the result is bitwise-identical at every worker count —
// and at every batch height, since a C row's bits depend on its own batch
// column of Bᵀ alone.
func (m *CSR) TSpMMTInto(c, bt *tensor.Tensor) {
	if bt.Rank() != 2 || bt.Dim(0) != m.Cols {
		panic(fmt.Sprintf("sparse: TSpMMT dims %vᵀx(%d,%d)ᵀ", bt.Shape(), m.Rows, m.Cols))
	}
	j := getCSRJob()
	m.spmmt(j, c, bt)
	putCSRJob(j)
}

func (m *CSR) spmmt(j *csrJob, c, bt *tensor.Tensor) {
	n := bt.Dim(1)
	if c.Len() != n*m.Rows {
		panic(fmt.Sprintf("sparse: SpMMT output has %d elements, want %d", c.Len(), n*m.Rows))
	}
	j.m, j.b, j.out, j.n = m, bt.Data(), c.Data(), n
	// A vector multiply-add counts as an eighth of a scalar one, as in
	// tensor.gemmWorkGrain: the grain is sized in time, not in operations.
	work := n * m.NNZ()
	if csrVector {
		work /= 8
	}
	parallel.Run(m.Rows, csrRowGrain(m.Rows, work), j, spmmtChunk)
}

// TSpMMInto computes Cᵀ = Sᵀ·Bᵀ — C = B·S with both dense operands
// feature-major — from bt (rows, n) into a caller-provided (cols, n) tensor
// ct without allocating. It is nn.Linear's forward over a CSR weight,
// yᵀ = Wᵀ·xᵀ read from the (in, out) weight in place: no transpose of S is
// built or stored. Every output is one chain, ct[c, i] = 0 and then
// ct[c, i] += S[j, c]·bt[j, i] for the rows j storing column c in ascending
// j, rounded after every multiply and every add — the chain row c of a
// transposed copy of S would sum under TSpMMTInto, so the two give the same
// bits. Parallel over S's columns (the rows of ct): a chunk owns ct rows
// [lo, hi) and walks every S row's slice of that range, found by binary
// search, so the result is bitwise-identical at every worker count — and at
// every batch height, since a ct column depends on its own bt column alone.
// The search needs each row's columns ascending, which every builder in
// this package produces and ShrinkTo keeps.
func (m *CSR) TSpMMInto(ct, bt *tensor.Tensor) {
	j := getCSRJob()
	m.tspmm(j, ct, bt)
	putCSRJob(j)
}

func (m *CSR) tspmm(j *csrJob, ct, bt *tensor.Tensor) {
	if bt.Rank() != 2 || bt.Dim(0) != m.Rows {
		panic(fmt.Sprintf("sparse: TSpMM dims (%d,%d)ᵀx%v", m.Rows, m.Cols, bt.Shape()))
	}
	n := bt.Dim(1)
	if ct.Len() != m.Cols*n {
		panic(fmt.Sprintf("sparse: TSpMM output has %d elements, want %d", ct.Len(), m.Cols*n))
	}
	j.m, j.b, j.out, j.n = m, bt.Data(), ct.Data(), n
	work := n * m.NNZ()
	if csrVector {
		work = (work + 7) / 8
	}
	parallel.Run(m.Cols, csrRowGrain(m.Cols, work), j, tspmmChunk)
}

// tspmmRun sizes the vector kernel's feature blocks: a block spans about
// tspmmRun of an average row's nonzeros. Every S row is visited once per
// block, so a block must be wide enough that a visit's fixed cost (its
// cursor, its bt row, the mispredicted end of its run) is spread over a
// run of nonzeros, and narrow enough that the ct slab it writes stays
// L1-resident (at 50 % density and 48 lanes, 96 features, 18 KB).
// Unblocked, a 640-feature chunk's slab at 48 lanes is 123 KB, and every
// nonzero's read-modify-write went to L2. BenchmarkInputGrad at batch 48,
// µs per call, min over 7 interleaved runs of 200 calls on a 2-vCPU Xeon VM
// ("stored" is the gather + SpMMᵀ over a stored transpose it replaced, the
// rest this kernel + the transpose back to dx):
//
//	density        50%    25%    10%    5%
//	stored        1139    464    182   101
//	unblocked      995    411    167    96
//	tspmmRun 32    677    339    152    95
//	tspmmRun 48    659    321    158    95
//	tspmmRun 64    644    333    168    97
//
// 32 to 64 sit within the VM's noise of one another. At batch 576 the same
// bench reads stored → 48 as 10 822 → 9 666, 5 282 → 5 203, 2 148 → 2 585
// and 1 188 → 1 642 (min of 6 runs of 40): the transpose back to dx, ≈ 430 µs
// there, is the whole loss at low density.
const tspmmRun = 48

// tspmmCursors is one chunk's per-S-row walk state for the vector kernel:
// span holds each row's stored positions [start, end) in the chunk's
// columns as pairs, and cur the same pairs with the start advanced by the
// chunk's feature blocks until it reaches the end.
type tspmmCursors struct{ span, cur []int32 }

var tspmmCursorFree parallel.Pool[tspmmCursors]

// tspmmChunk computes ct rows [lo, hi) — S columns lo..hi-1 — of
// TSpMMInto: it zeroes them, then adds each S row's products into them in
// ascending row order. With the vector kernel the batch goes 48, 32 or 8
// lanes at a time through the AVX2 block kernels — batch block outermost,
// then feature blocks sized by tspmmRun, each walked over every S row from
// the row's cursor — and a row's walk must end exactly at its end, else the
// row holds a column outside the chunk (or out of order) and nothing
// further is trusted. The n mod 8 lanes left over, and every lane on other
// hosts, run the Go chain below, which is the same sequence one output at a
// time and checks every column against the chunk.
func tspmmChunk(ctx any, lo, hi int) {
	g := ctx.(*csrJob)
	m, bt, ct, n := g.m, g.b, g.out, g.n
	clear(ct[lo*n : hi*n])
	if m.NNZ() == 0 {
		return
	}
	bad := func(j int) {
		panic(fmt.Sprintf("sparse: CSR row %d has a column index outside [0, %d), or its columns do not ascend", j, m.Cols))
	}
	if len(m.Val) != len(m.ColIdx) {
		panic(fmt.Sprintf("sparse: CSR has %d values for %d column indices", len(m.Val), len(m.ColIdx)))
	}
	i := 0
	if csrVector && n >= 8 {
		cs := tspmmCursorFree.Get()
		if cap(cs.span) < 2*m.Rows {
			cs.span, cs.cur = make([]int32, 2*m.Rows), make([]int32, 2*m.Rows)
		}
		span, cur := cs.span[:2*m.Rows], cs.cur[:2*m.Rows]
		for j := 0; j < m.Rows; j++ {
			pa, pb := m.colRange(j, lo, hi)
			if pa < 0 || pa > pb || pb > len(m.ColIdx) {
				panic(fmt.Sprintf("sparse: CSR row %d spans [%d, %d) of %d stored positions", j, pa, pb, len(m.ColIdx)))
			}
			span[2*j], span[2*j+1] = int32(pa), int32(pb)
		}
		fb := max(8, tspmmRun*m.Rows*m.Cols/m.NNZ())
		for n-i >= 8 {
			w, kern := 8, tspmmBlock8AVX2
			if n-i >= 48 {
				w, kern = 48, tspmmBlock48AVX2
			} else if n-i >= 32 {
				w, kern = 32, tspmmBlock32AVX2
			}
			copy(cur, span)
			for f := lo; f < hi; f += fb {
				kern(&ct[f*n+i], n, &bt[i], &m.Val[0], &m.ColIdx[0], &cur[0], m.Rows, f, min(fb, hi-f))
			}
			for j := 0; j < m.Rows; j++ {
				if cur[2*j] != cur[2*j+1] {
					bad(j)
				}
			}
			i += w
		}
		tspmmCursorFree.Put(cs)
	}
	if i == n {
		return
	}
	for j := 0; j < m.Rows; j++ {
		pa, pb := m.colRange(j, lo, hi)
		bj := bt[j*n+i : (j+1)*n]
		for p := pa; p < pb; p++ {
			c := int(m.ColIdx[p])
			if c < lo || c >= hi {
				bad(j)
			}
			v, cc := m.Val[p], ct[c*n+i:(c+1)*n]
			for l, b := range bj {
				cc[l] += v * b
			}
		}
	}
}

// colRange returns the stored positions [pa, pb) of row j whose columns
// fall in [lo, hi), by binary search over the row's ascending columns. At
// the matrix's edges the range runs to the row's ends instead, so a column
// index below 0 or not below Cols lands in the first or last chunk's range
// and fails that chunk's check rather than being skipped.
func (m *CSR) colRange(j, lo, hi int) (pa, pb int) {
	pa, pb = int(m.RowPtr[j]), int(m.RowPtr[j+1])
	if lo > 0 {
		pa = searchCol(m.ColIdx, pa, pb, lo)
	}
	if hi < m.Cols {
		pb = searchCol(m.ColIdx, pa, pb, hi)
	}
	return pa, pb
}

// searchCol returns the first p in [p0, p1) with col[p] ≥ c, or p1.
func searchCol(col []int32, p0, p1, c int) int {
	for p0 < p1 {
		h := int(uint(p0+p1) >> 1)
		if int(col[h]) < c {
			p0 = h + 1
		} else {
			p1 = h
		}
	}
	return p0
}

func (m *CSR) sddmmCheck(a, b *tensor.Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(0) != m.Rows || b.Dim(0) != m.Cols || a.Dim(1) != b.Dim(1) {
		panic("sparse: SDDMM shape mismatch")
	}
}

// sddmmWinChunk computes the sampled dots of S rows [lo,hi) like sddmmChunk,
// from the batch-major operand x = Bᵀ (k, cols): rows go two at a time
// through sddmmWin32AVX2, which forms every dot of both rows against one
// 32-column window of x with contiguous loads — no gather — and the rows'
// nonzeros inside the window are copied out of it. The next window starts
// at the lowest column either row has left (clamped to end at cols), so a
// window no nonzero falls in is never computed, and an unsorted row only
// costs a recomputed window. Each lane is the Go chain's sequence over the
// same operands, so the output is bit-identical to sddmmChunk's. Every
// column index is checked before the window it names is read.
func sddmmWinChunk(ctx any, lo, hi int) {
	g := ctx.(*csrJob)
	m, ad, xd, k := g.m, g.a, g.x, g.k
	out, acc, cols := g.out, g.accumulate, m.Cols
	col := func(p int) int {
		c := m.ColIdx[p]
		if uint(c) >= uint(cols) {
			panic(fmt.Sprintf("sparse: CSR has a column index %d outside [0, %d)", c, cols))
		}
		return int(c)
	}
	// emit copies the run of nonzeros from p that fall in the window at c0
	// out of win, and returns where the run ends.
	emit := func(p, p1, c0 int, win []float32) int {
		for ; p < p1; p++ {
			d := int(m.ColIdx[p]) - c0
			if uint(d) >= 32 {
				break
			}
			if acc {
				out[p] += win[d]
			} else {
				out[p] = win[d]
			}
		}
		return p
	}
	var win [64]float32
	for i := lo; i < hi; i += 2 {
		p, p1 := int(m.RowPtr[i]), int(m.RowPtr[i+1])
		q, q1, lda := p1, p1, 0 // an unpaired last row runs twice
		if i+1 < hi {
			q, q1, lda = p1, int(m.RowPtr[i+2]), k
		}
		for p < p1 || q < q1 {
			c := cols
			if p < p1 {
				c = col(p)
			}
			if q < q1 {
				c = min(c, col(q))
			}
			c0 := min(c&^31, cols-32)
			sddmmWin32AVX2(&win, &ad[i*k], lda, &xd[c0], cols, k)
			p = emit(p, p1, c0, win[:32])
			q = emit(q, q1, c0, win[32:])
		}
	}
}

// sddmmWinDensity: SDDMM runs the windowed kernel for a pattern at least
// 1/sddmmWinDensity dense. The two kernels give the same bits, so this is a
// time-only rule. The windowed kernel's cost is nearly flat in density (it
// forms every dot of a window with a hit); the gathered kernel's grows with
// the nonzeros. One worker, ms per call, gathered → windowed:
//
//	W shape, batch   50%           25%           20%           10%
//	640×640, 48      2.29 → 1.13   1.10 → 1.03   0.89 → 1.02   0.46 → 0.89
//	640×512, 48      1.84 → 1.21   0.94 → 0.79   0.70 → 0.77   0.40 → 0.73
//	64×640, 48       0.22 → 0.10   0.11 → 0.09   0.09 → 0.09   0.05 → 0.10
//	640×640, 576     22.7 → 11.9   11.4 → 11.3   9.9 → 11.0    5.0 → 9.9
//
// The lines cross between a fifth and a quarter on every shape.
const sddmmWinDensity = 4

// sddmmWindowed reports whether SDDMMInto at batch k runs sddmmWinChunk
// when it has the batch-major operand.
func (m *CSR) sddmmWindowed(k int) bool {
	return csrVector && k > 0 && m.Cols >= 32 && sddmmWinDensity*m.NNZ() >= m.Rows*m.Cols
}

// SDDMMInto computes the sampled dense-dense matrix multiplication
// out[i,j] = (A·Bᵀ)[i,j] for (i,j) in the sparsity pattern of m, with A
// (rows,k) and B (cols,k) — the kernel the backward pass of a sparse FC layer
// needs (weight gradient restricted to the unpruned pattern) — into a
// caller-provided value slice aligned with m's pattern (len = NNZ); with
// accumulate it adds into dstVal (the gradient-accumulation form a
// pipelined backward pass needs). Parallel over rows: each row's value range
// [RowPtr[i], RowPtr[i+1]) is disjoint, so workers write disjoint slices.
//
// A caller that also holds B's transpose (k, cols) — nn.Linear's batch-major
// output gradient dy beside the feature-major dyᵀ — passes it as bT: a
// pattern at least a quarter dense then reads it through the windowed kernel
// (sddmmWinChunk).
// The result bits are the same with or without it.
func (m *CSR) SDDMMInto(dstVal []float32, a, b *tensor.Tensor, accumulate bool, bT ...*tensor.Tensor) {
	m.sddmmCheck(a, b)
	if len(dstVal) != m.NNZ() {
		panic(fmt.Sprintf("sparse: SDDMMInto values length %d, want %d", len(dstVal), m.NNZ()))
	}
	k := a.Dim(1)
	j := getCSRJob()
	j.m, j.a, j.b, j.out, j.k = m, a.Data(), b.Data(), dstVal, k
	j.accumulate = accumulate
	chunk := sddmmChunk
	if len(bT) > 0 {
		x := bT[0]
		if len(bT) > 1 || x.Rank() != 2 || x.Dim(0) != k || x.Dim(1) != m.Cols {
			panic(fmt.Sprintf("sparse: SDDMMInto wants one batch-major operand of (%d,%d), got %d, the first %v",
				k, m.Cols, len(bT), x.Shape()))
		}
		if m.sddmmWindowed(k) {
			j.x, chunk = x.Data(), sddmmWinChunk
		}
	}
	parallel.Run(m.Rows, csrRowGrain(m.Rows, m.NNZ()*k), j, chunk)
	putCSRJob(j)
}

// Transposed is the transpose of a CSR as a view: it holds no pattern of
// its own, and its product walks the viewed rows in place. Nothing builds
// one; it stays only for nn.SparseLinear's shim (ROADMAP.md item 2).
type Transposed struct{ m *CSR }

// SpMMTInto computes C = B·(Sᵀ)ᵀ = B·S for dense B (n, rows) into a
// caller-provided (n, cols) tensor without allocating — the sample-major
// form of the input gradient dx = dy·W of an FC weight stored (out, in). B
// is transposed into pooled scratch, TSpMMInto runs, and Cᵀ is transposed
// back.
func (t Transposed) SpMMTInto(c, b *tensor.Tensor) {
	m := t.m
	if b.Rank() != 2 || b.Dim(1) != m.Rows {
		panic(fmt.Sprintf("sparse: SpMM dims %vx(%d,%d)", b.Shape(), m.Rows, m.Cols))
	}
	j := getCSRJob()
	if j.scratch == nil {
		j.scratch = tensor.NewArena()
	}
	bt := j.scratch.Get(m.Rows, b.Dim(0))
	tensor.TransposeInto(bt, b)
	ct := j.scratch.Get(m.Cols, b.Dim(0))
	m.tspmm(j, ct, bt)
	tensor.TransposeInto(c, ct)
	j.scratch.Reset()
	putCSRJob(j)
}

// ShrinkTo drops the pattern positions where keep is false (keep is in
// stored CSR order), compacting Val/ColIdx leftward and rewriting RowPtr —
// all in place. Under a gradual pruning schedule NNZ only ever decreases,
// so the backing arrays are reused across every prune event of a run.
func (m *CSR) ShrinkTo(keep []bool) {
	if len(keep) != len(m.Val) {
		panic(fmt.Sprintf("sparse: CSR ShrinkTo keep length %d, want %d", len(keep), len(m.Val)))
	}
	w := int32(0)
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		m.RowPtr[i] = w
		for p := lo; p < hi; p++ {
			if keep[p] {
				m.Val[w] = m.Val[p]
				m.ColIdx[w] = m.ColIdx[p]
				w++
			}
		}
	}
	m.RowPtr[m.Rows] = w
	m.Val = m.Val[:w]
	m.ColIdx = m.ColIdx[:w]
}

// LinearIDs returns the strictly increasing linearized (row-major) element
// ids of the stored pattern — the scatter map a dense-masked materialization
// of the matrix uses (via IndexFromSlice + Expand).
func (m *CSR) LinearIDs() []int32 {
	ids := make([]int32, 0, len(m.Val))
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			ids = append(ids, int32(i)*int32(m.Cols)+m.ColIdx[p])
		}
	}
	return ids
}

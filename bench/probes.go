package main

import (
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"github.com/sparse-dl/samo/internal/ckpt"
	"github.com/sparse-dl/samo/internal/comm"
	"github.com/sparse-dl/samo/internal/comm/tcp"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Stand-alone probes: a traced run times single public kernels and
// collectives at the sizes its workload uses, so a per-layer number exists
// for code the step-level spans cannot see inside.

const (
	// probeWarm covers the GEMM tuner's 7 candidates x 3 probes per bucket.
	probeWarm   = 32
	probeBudget = 120 * time.Millisecond
)

// timeCalls warms fn up, then calls it until the budget (scaled to the run
// length like every other duration) is spent, at least five times, and
// returns the median call in milliseconds.
func (c runCtx) timeCalls(fn func()) (medMs float64, n int) {
	for i := shrunk(probeWarm, c.seconds, 1); i > 0; i-- {
		fn()
	}
	budget := time.Duration(float64(probeBudget) * math.Min(1, c.seconds/baseSeconds))
	var samples []float64
	for start := time.Now(); len(samples) < 5 || time.Since(start) < budget; {
		t0 := time.Now()
		fn()
		samples = append(samples, ms(time.Since(t0)))
	}
	return median(samples), len(samples)
}

func randTensor(rng *tensor.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	tensor.FillNormal(t, 1, rng)
	return t
}

// probeMatMul times the three GEMM orientations at one (m,k,n) shape — the
// workload's dominant fully connected product. FLOPs and bytes are computed
// from the shape, not measured.
func probeMatMul(c runCtx, res *result, shape [3]int) {
	m, k, n := shape[0], shape[1], shape[2]
	rng := tensor.NewRNG(7)
	flops := 2 * float64(m) * float64(k) * float64(n)
	gflops := func(medMs float64) float64 { return flops / (medMs * 1e6) }

	out, a, b := tensor.New(m, n), randTensor(rng, m, k), randTensor(rng, k, n)
	med, cnt := c.timeCalls(func() { tensor.MatMulInto(out, a, b, false) })
	res.set("tensor.matmul_gflops", gflops(med), cnt)

	bt := randTensor(rng, n, k) // C = A·Bᵀ
	med, cnt = c.timeCalls(func() { tensor.MatMulTInto(out, a, bt, false) })
	res.set("tensor.matmul_t_gflops", gflops(med), cnt)

	at := randTensor(rng, k, m) // C = Aᵀ·B
	med, cnt = c.timeCalls(func() { tensor.TMatMulInto(out, at, b, false) })
	res.set("tensor.t_matmul_gflops", gflops(med), cnt)

	res.set("tensor.matmul_bytes", 4*float64(m*k+k*n+m*n), 1)
	res.infof("matmul probe shape m=%d k=%d n=%d", m, k, n)
}

// probeSparseLayers times the CSR kernels and the dense-masked alternative
// on the model's own SparseLinear patterns at the workload's batch size,
// summed over layers so each number is one step's worth, and reads back
// which way the crossover froze each of the workload's buckets.
func probeSparseLayers(c runCtx, res *result, m *nn.Model, batch int) {
	rng := tensor.NewRNG(11)
	var spmmt, sddmm, dense, denseFlops float64
	var buckets, sparseBuckets, n int
	for _, l := range m.Layers {
		sl, ok := l.(*nn.SparseLinear)
		if !ok {
			continue
		}
		out, in := sl.W.Rows, sl.W.Cols
		x, dy := randTensor(rng, batch, in), randTensor(rng, batch, out)
		y, dx := tensor.New(batch, out), tensor.New(batch, in)
		xT, dyT := randTensor(rng, in, batch), randTensor(rng, out, batch)
		grad := make([]float32, sl.W.NNZ())

		med, cnt := c.timeCalls(func() { sl.W.SpMMTInto(y, x) })
		spmmt += med
		med, _ = c.timeCalls(func() { sl.Wt.SpMMTInto(dx, dy) })
		spmmt += med
		med, _ = c.timeCalls(func() { sl.W.SDDMMInto(grad, dyT, xT, false) })
		sddmm += med
		n = cnt

		// The dense-masked path: scatter the pattern into a dense weight,
		// then A·Bᵀ forward and A·B for the input gradient.
		dw := tensor.New(out, in)
		ix := sparse.IndexFromSlice(sl.W.LinearIDs(), out*in)
		med, _ = c.timeCalls(func() { ix.Expand(dw.Data(), sl.W.Val) })
		dense += med
		med, _ = c.timeCalls(func() { tensor.MatMulTInto(y, x, dw, false) })
		dense += med
		med, _ = c.timeCalls(func() { tensor.MatMulInto(dx, dy, dw, false) })
		dense += med
		denseFlops += 2 * 2 * float64(batch) * float64(in) * float64(out)

		for _, q := range []struct {
			op      sparse.XoverOp
			m, k, n int
		}{{sparse.XoverOpForward, batch, in, out}, {sparse.XoverOpBackward, batch, out, in}} {
			// Read-only here: every bucket froze during warm-up, and a
			// bucket still probing is reported as undecided, not sparse.
			e, _, probing := sparse.XoverDecide(q.op, q.m, q.k, q.n, sl.W.NNZ(), in*out)
			buckets++
			if e == nil || probing {
				continue
			}
			if ch, ok := e.Decided(); ok && ch == sparse.XoverSparse {
				sparseBuckets++
			}
		}
	}
	if buckets == 0 {
		return
	}
	res.set("sparse.spmmt_ms", spmmt, n)
	res.set("sparse.sddmm_ms", sddmm, n)
	res.set("sparse.dense_masked_ms", dense, n)
	res.set("sparse.spmmt_eff_gflops", denseFlops/(spmmt*1e6), n)
	res.set("sparse.xover_sparse_share", float64(sparseBuckets)/float64(buckets), buckets)
}

// probeCompressExpand times sparse.Index.Compress/Expand on the model's
// largest pruned parameter. Bytes are computed: compress reads nnz values
// and ids and writes nnz values; expand also zero-fills the dense vector.
func probeCompressExpand(c runCtx, res *result, m *nn.Model, pr *prune.Result) {
	var ix *sparse.Index
	for _, e := range m.PruneLayers() {
		if cand := pr.Index(e.Name); cand != nil && (ix == nil || cand.NNZ() > ix.NNZ()) {
			ix = cand
		}
	}
	if ix == nil {
		return
	}
	rng := tensor.NewRNG(13)
	dense := randTensor(rng, ix.FullLen()).Data()
	packed := make([]float32, ix.NNZ())
	med, n := c.timeCalls(func() { ix.Compress(packed, dense) })
	res.set("sparse.compress_gbps", 12*float64(ix.NNZ())/(med*1e6), n)
	med, n = c.timeCalls(func() { ix.Expand(dense, packed) })
	res.set("sparse.expand_gbps", (12*float64(ix.NNZ())+4*float64(ix.FullLen()))/(med*1e6), n)
}

// probeAllReduce times a two-rank ring all-reduce of `elems` floats on the
// in-process mesh and over TCP loopback.
func probeAllReduce(c runCtx, res *result, elems int) error {
	local := comm.NewFabric(2)
	med, n, err := c.timeAllReduce([]*comm.Fabric{local, local}, elems)
	local.Close()
	if err != nil {
		return err
	}
	res.set("comm.allreduce_local_ms", med, n)

	trs, err := tcp.Loopback(2)
	if err != nil {
		return fmt.Errorf("tcp loopback: %w", err)
	}
	fabs := []*comm.Fabric{comm.NewFabricOver(trs[0]), comm.NewFabricOver(trs[1])}
	med, n, err = c.timeAllReduce(fabs, elems)
	for _, f := range fabs {
		f.Close()
	}
	if err != nil {
		return err
	}
	res.set("comm.allreduce_tcp_ms", med, n)
	// Each rank of a two-rank ring sends and receives the whole buffer once.
	res.set("comm.allreduce_tcp_mbps", 2*4*float64(elems)/(med*1e3), n)
	res.infof("all-reduce probe %d elements", elems)
	return nil
}

// timeAllReduce runs rank r of a two-rank group on fabs[r] (the same fabric
// twice for the local mesh) and returns rank 0's median call.
func (c runCtx) timeAllReduce(fabs []*comm.Fabric, elems int) (medMs float64, n int, err error) {
	calls := shrunk(40, c.seconds, 5)
	group := []int{0, 1}
	samples := make([]float64, 0, calls)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rk := fabs[r].Rank(r)
			buf := make([]float32, elems)
			for i := 0; i < calls+5; i++ {
				t0 := time.Now()
				if errs[r] = rk.AllReduce(group, buf); errs[r] != nil {
					return
				}
				if r == 0 && i >= 5 {
					samples = append(samples, ms(time.Since(t0)))
				}
			}
		}(r)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, 0, fmt.Errorf("all-reduce probe: %w", e)
		}
	}
	return median(samples), len(samples), nil
}

// probeSendRecv times a TCP loopback round trip of an activation-sized
// message (rank 0 sends, rank 1 echoes) and reports half of it.
func probeSendRecv(c runCtx, res *result, elems int) error {
	trs, err := tcp.Loopback(2)
	if err != nil {
		return fmt.Errorf("tcp loopback: %w", err)
	}
	fabs := []*comm.Fabric{comm.NewFabricOver(trs[0]), comm.NewFabricOver(trs[1])}
	defer func() {
		for _, f := range fabs {
			f.Close()
		}
	}()
	calls := shrunk(200, c.seconds, 10)
	errs := make([]error, 2)
	samples := make([]float64, 0, calls)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // echo
		defer wg.Done()
		rk := fabs[1].Rank(1)
		for i := 0; i < calls; i++ {
			msg, err := rk.Recv()
			if err == nil {
				err = rk.Send(0, comm.TagGradient, i, msg.Data, msg.Shape...)
			}
			if err != nil {
				errs[1] = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		rk := fabs[0].Rank(0)
		buf := make([]float32, elems)
		for i := 0; i < calls; i++ {
			t0 := time.Now()
			if errs[0] = rk.Send(1, comm.TagActivation, i, buf, elems); errs[0] != nil {
				return
			}
			if _, errs[0] = rk.Recv(); errs[0] != nil {
				return
			}
			samples = append(samples, float64(time.Since(t0))/float64(time.Microsecond)/2)
		}
	}()
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return fmt.Errorf("send/recv probe: %w", e)
		}
	}
	res.set("comm.sendrecv_tcp_us", median(samples), len(samples))
	return nil
}

// probeCkpt saves and loads st through a fresh ckpt.Manager under dir.
func probeCkpt(c runCtx, res *result, st ckpt.State) error {
	tmp, err := os.MkdirTemp(c.tmpDir, "ckpt-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	mgr, err := ckpt.New(ckpt.Options{Dir: tmp, Shards: 1, Tag: "probe"})
	if err != nil {
		return err
	}
	var save, load []float64
	for step := shrunk(5, c.seconds, 2); step >= 1; step-- {
		t0 := time.Now()
		if err := mgr.Save(step, 0, st); err != nil {
			return err
		}
		t1 := time.Now()
		if err := mgr.Load(step, 0, st); err != nil {
			return err
		}
		save = append(save, ms(t1.Sub(t0)))
		load = append(load, ms(time.Since(t1)))
	}
	res.set("ckpt.save_ms", median(save), len(save))
	res.set("ckpt.load_ms", median(load), len(load))
	var cw countWriter
	if _, err := st.Save(&cw); err != nil {
		return err
	}
	res.set("ckpt.bytes", float64(cw), 1)
	return nil
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) { *c += countWriter(len(p)); return len(p), nil }

// probePruneEvent times one gradual-pruning event: MaybePrune at the
// schedule's first event step on a state that has not been shrunk yet.
func probePruneEvent(res *result, st *core.ModelState, sched prune.Schedule) error {
	gp, err := core.NewGradualPruner(st, sched)
	if err != nil {
		return err
	}
	ev := sched.Events()
	// The first event's target equals the initial sparsity and prunes
	// nothing; the second is the first real shrink.
	step := ev[0]
	if len(ev) > 1 {
		step = ev[1]
	}
	t0 := time.Now()
	gp.MaybePrune(step)
	res.set("prune.event_ms", ms(time.Since(t0)), 1)
	return nil
}

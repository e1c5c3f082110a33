package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// newInferenceState wraps a model in a forward-only state (dense mode, no
// pruning) — the serve engine's only dependency.
func newInferenceState(m *nn.Model) *core.InferenceState {
	return core.NewInferenceState(m, optim.NewAdam(0.01), core.Dense, nil)
}

// normalSamples draws n samples of the given shape.
func normalSamples(rng *tensor.RNG, n int, shape ...int) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.New(shape...)
		tensor.FillNormal(xs[i], 1, rng)
	}
	return xs
}

// tinyGPT builds the one-block GPT the tests serve, with n distinct (6,1)
// token samples.
func tinyGPT(rng *tensor.RNG, n int) (*nn.Model, []*tensor.Tensor) {
	m := nn.BuildGPT(nn.GPTConfig{Name: "tgpt", Layers: 1, Hidden: 32, Heads: 4, Seq: 6, Vocab: 20}, rng)
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		ids := make([]int, 6)
		for j := range ids {
			ids[j] = (i*5 + j*3) % 20
		}
		xs[i] = nn.TokensToTensor(ids)
	}
	return m, xs
}

// sparsifiedMLP builds a pruned MLP executing through SparseLinear layers,
// with the sparse/dense crossover in mode xover ("auto" = the density rule)
// for the test's lifetime.
func sparsifiedMLP(t *testing.T, rng *tensor.RNG, xover string, sparsity float64, dims []int) *nn.Model {
	t.Helper()
	prev, err := sparse.SetXover(xover)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sparse.SetXover(prev) })
	base := nn.BuildMLP("xmlp", dims, rng)
	var layers []prune.Layer
	for _, e := range base.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	return nn.Sparsify(base, prune.MagnitudePerLayer(layers, sparsity))
}

// offlineRefs computes each sample's offline inference forward, alone: what
// a served response must equal bit for bit, whatever batch it rode in.
func offlineRefs(m *nn.Model, samples []*tensor.Tensor) [][]float32 {
	refs := make([][]float32, len(samples))
	for i, x := range samples {
		refs[i] = m.Infer(nil, x).Data()
	}
	return refs
}

// serveAll drives the engine with `concurrency` goroutines over all samples,
// retrying backpressure rejections, and returns each response's data.
func serveAll(t *testing.T, e *Engine, samples []*tensor.Tensor, concurrency int) [][]float32 {
	t.Helper()
	got := make([][]float32, len(samples))
	errs := make([]error, concurrency)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(samples) {
					return
				}
				for {
					y, err := e.Infer(samples[i])
					if err == nil {
						got[i] = y.Data()
						break
					}
					if err != ErrOverloaded {
						errs[c] = fmt.Errorf("request %d: %w", i, err)
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return got
}

func assertBitwise(t *testing.T, refs, got [][]float32) {
	t.Helper()
	for i := range refs {
		if len(got[i]) != len(refs[i]) {
			t.Fatalf("request %d: served %d values, offline %d", i, len(got[i]), len(refs[i]))
		}
		for j := range refs[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(refs[i][j]) {
				t.Fatalf("request %d value %d: served %x != offline %x",
					i, j, math.Float32bits(got[i][j]), math.Float32bits(refs[i][j]))
			}
		}
	}
}

// TestServeBitwiseMatchesOffline is the serving determinism golden:
// responses served among arbitrary concurrent traffic, in whatever buckets
// the race produces, are bitwise-identical to the offline inference forward
// of each sample alone — on the MLP and GPT families.
func TestServeBitwiseMatchesOffline(t *testing.T) {
	rng := tensor.NewRNG(17)
	mlp := nn.BuildMLP("smlp", []int{12, 24, 5}, rng)
	mlpSamples := normalSamples(rng, 40, 1, 12)
	gpt, gptSamples := tinyGPT(rng, 24)

	for _, tc := range []struct {
		name    string
		model   *nn.Model
		samples []*tensor.Tensor
	}{{"mlp", mlp, mlpSamples}, {"gpt", gpt, gptSamples}} {
		t.Run(tc.name, func(t *testing.T) {
			// Build the state FIRST: its constructor quantizes the model's
			// weights to the fp16 grid in place, and the offline reference
			// must run on the same grid the engine serves.
			st := newInferenceState(tc.model)
			refs := offlineRefs(tc.model, tc.samples)
			e := New(st, Config{MaxBatch: 4})
			got := serveAll(t, e, tc.samples, 6)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			assertBitwise(t, refs, got)
			stats := e.Stats()
			if stats.Requests != int64(len(tc.samples)) {
				t.Fatalf("stats count %d requests, served %d", stats.Requests, len(tc.samples))
			}
			if stats.Batches < 1 || stats.Batches > int64(len(tc.samples)) {
				t.Fatalf("implausible batch count %d", stats.Batches)
			}
		})
	}
}

// TestServeSparsifiedBitwise extends the golden to sparse execution: a
// Sparsify'd model served through the engine matches its offline forward
// with the crossover pinned to each submode.
func TestServeSparsifiedBitwise(t *testing.T) {
	for _, mode := range []string{"sparse", "dense"} {
		t.Run(mode, func(t *testing.T) {
			rng := tensor.NewRNG(23)
			m := sparsifiedMLP(t, rng, mode, 0.9, []int{16, 32, 6})
			samples := normalSamples(rng, 20, 1, 16)

			st := newInferenceState(m) // quantizes in place; refs must follow
			refs := offlineRefs(m, samples)
			e := New(st, Config{MaxBatch: 4})
			got := serveAll(t, e, samples, 5)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			assertBitwise(t, refs, got)
		})
	}
}

// gate is a pass-through first layer that parks the batching loop inside a
// forward until released (one receive from release per forward, or a close
// for all): the wedge that lets a test fill the queue to an exact depth.
// (Racing submitters against a live loop left the queue unfilled, and the
// test skipped, in a few percent of runs on two cores.)
type gate struct{ entered, release chan struct{} }

func (g *gate) Forward(_ *tensor.Arena, x *tensor.Tensor, _ bool) (*tensor.Tensor, any) {
	g.entered <- struct{}{}
	<-g.release
	return x, nil
}

func (g *gate) Backward(*tensor.Arena, any, *tensor.Tensor) *tensor.Tensor {
	panic("gate: forward-only")
}

func (g *gate) Params() []*nn.Param { return nil }

// driveBuckets serves samples through an engine whose model starts with g,
// in batches of exactly the given sizes: while the loop is parked in one
// forward, the next group is queued to its full depth, so the loop gathers
// it whole. Every sample is served once per size, in groups of that size cut
// in order (the last group of a size may be short). It returns the responses
// per size, parallel to samples, and closes the engine.
func driveBuckets(t *testing.T, e *Engine, g *gate, samples []*tensor.Tensor, sizes []int) [][][]float32 {
	t.Helper()
	got := make([][][]float32, len(sizes))
	var wg sync.WaitGroup
	submit := func(x *tensor.Tensor, out *[]float32) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y, err := e.Infer(x)
			if err != nil {
				t.Error(err)
				return
			}
			if out != nil {
				*out = y.Data()
			}
		}()
	}
	submit(samples[0], nil) // wedges the idle loop so the first group can queue
	<-g.entered
	batches := int64(1)
	for si, size := range sizes {
		got[si] = make([][]float32, len(samples))
		for lo := 0; lo < len(samples); lo += size {
			hi := lo + size
			if hi > len(samples) {
				hi = len(samples)
			}
			for i := lo; i < hi; i++ {
				submit(samples[i], &got[si][i])
			}
			deadline := time.Now().Add(10 * time.Second)
			for len(e.queue) < hi-lo {
				if time.Now().After(deadline) {
					t.Fatalf("queue holds %d requests, want %d", len(e.queue), hi-lo)
				}
				time.Sleep(50 * time.Microsecond)
			}
			g.release <- struct{}{} // the parked forward finishes ...
			<-g.entered             // ... and the group is gathered and parked
			if n := len(e.queue); n != 0 {
				t.Fatalf("group of %d left %d requests queued", hi-lo, n)
			}
			batches++
		}
	}
	g.release <- struct{}{}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Batches != batches || st.Failed != 0 {
		t.Fatalf("%d batches, %d failed; want %d batches, 0 failed", st.Batches, st.Failed, batches)
	}
	return got
}

func gated(m *nn.Model) *gate {
	g := &gate{entered: make(chan struct{}, 1), release: make(chan struct{})}
	m.Layers = append([]nn.Layer{g}, m.Layers...)
	return g
}

// TestServeBucketInvariant is the engine's contract, driven
// deterministically: every sample rides in batches of 1, 2, 3 (padded to 4),
// 4, 5 (padded to 8) and 8 — so through every bucket — and each response
// equals the single-sample offline forward bit for bit. MLP (1,f) rows reach
// the m ∈ {1,2,3} products that used to take a different kernel; the CNN
// covers the A·Bᵀ products and both small-shape kernels; the Sparsify'd MLP
// covers CSR and dense-masked execution, each pinned, and the auto rule
// either side of its line (50% runs dense, 90% CSR — in every bucket, since
// the rule does not read the batch height).
func TestServeBucketInvariant(t *testing.T) {
	type fixture func(*testing.T, *tensor.RNG) (*nn.Model, []*tensor.Tensor)
	sparsified := func(xover string, sparsity float64) fixture {
		return func(t *testing.T, rng *tensor.RNG) (*nn.Model, []*tensor.Tensor) {
			return sparsifiedMLP(t, rng, xover, sparsity, []int{24, 48, 6}), normalSamples(rng, 8, 1, 24)
		}
	}
	for _, tc := range []struct {
		name  string
		build fixture
	}{
		{"mlp", func(_ *testing.T, rng *tensor.RNG) (*nn.Model, []*tensor.Tensor) {
			return nn.BuildMLP("imlp", []int{24, 48, 32, 6}, rng), normalSamples(rng, 8, 1, 24)
		}},
		{"cnn", func(_ *testing.T, rng *tensor.RNG) (*nn.Model, []*tensor.Tensor) {
			return nn.BuildVGG("icnn", []int{8, -1, 16}, 3, 8, 5, rng), normalSamples(rng, 8, 1, 3, 8, 8)
		}},
		{"gpt", func(_ *testing.T, rng *tensor.RNG) (*nn.Model, []*tensor.Tensor) { return tinyGPT(rng, 8) }},
		{"sparsified/sparse", sparsified("sparse", 0.9)},
		{"sparsified/dense", sparsified("dense", 0.9)},
		{"sparsified/auto50", sparsified("auto", 0.5)},
		{"sparsified/auto90", sparsified("auto", 0.9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, samples := tc.build(t, tensor.NewRNG(43))
			st := newInferenceState(m) // quantizes in place; refs must follow
			refs := offlineRefs(m, samples)
			g := gated(m)
			sizes := []int{1, 2, 3, 4, 5, 8}
			got := driveBuckets(t, New(st, Config{MaxBatch: 8, QueueDepth: 8}), g, samples, sizes)
			for si := range sizes {
				assertBitwise(t, refs, got[si])
			}
		})
	}
}

// TestServeArenaBytesBounded keeps the reason for power-of-two buckets true:
// an engine that has served every bucket retains at most twice the
// activation memory of one that only ever ran the largest (exact-fit batch
// heights would retain 4.5×).
func TestServeArenaBytesBounded(t *testing.T) {
	arenaBytes := func(sizes ...int) int64 {
		m, xs := tinyGPT(tensor.NewRNG(47), 8)
		e := New(newInferenceState(m), Config{MaxBatch: 8, QueueDepth: 8})
		driveBuckets(t, e, gated(m), xs, sizes)
		return e.Stats().ArenaBytes
	}
	// Both engines also run the wedge request's bucket-1 forward.
	top, all := arenaBytes(8), arenaBytes(1, 2, 3, 4, 5, 6, 7, 8)
	if top == 0 || all > 2*top {
		t.Fatalf("arenas retain %d bytes after every bucket, over twice the %d of bucket 8 alone", all, top)
	}
	t.Logf("bucket 8 alone %d bytes, every bucket %d (%.2fx)", top, all, float64(all)/float64(top))
}

// TestServePanicIsolated: a sample the model panics on (a token id outside
// the vocabulary) fails its own request with a *PanicError and nothing else —
// requests before and after it are answered with the right bits.
func TestServePanicIsolated(t *testing.T) {
	m, good := tinyGPT(tensor.NewRNG(53), 6)
	st := newInferenceState(m)
	refs := offlineRefs(m, good)
	e := New(st, Config{MaxBatch: 4})
	defer e.Close()

	got := make([][]float32, len(good))
	for i, x := range good {
		if i == len(good)/2 {
			_, err := e.Infer(nn.TokensToTensor([]int{0, 1, 99, 3, 4, 5}))
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Value == nil {
				t.Fatalf("poisoned sample returned %v, want a *PanicError carrying the panic value", err)
			}
		}
		y, err := e.Infer(x)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		got[i] = y.Data()
	}
	assertBitwise(t, refs, got)
	if st := e.Stats(); st.Failed != 1 || st.Requests != int64(len(good)) {
		t.Fatalf("stats count %d failed, %d served; want 1 and %d", st.Failed, st.Requests, len(good))
	}
}

// TestServeBackpressure pins the admission contract: with the batching loop
// wedged, a full queue rejects instantly with ErrOverloaded and counts the
// rejection — it never blocks the caller.
func TestServeBackpressure(t *testing.T) {
	const depth, overflow = 2, 5
	rng := tensor.NewRNG(31)
	m := nn.BuildMLP("bmlp", []int{8, 8, 3}, rng)
	g := &gate{entered: make(chan struct{}, 1+depth), release: make(chan struct{})}
	m.Layers = append([]nn.Layer{g}, m.Layers...)
	e := New(newInferenceState(m), Config{MaxBatch: 1, QueueDepth: depth})
	defer e.Close()

	var wg sync.WaitGroup
	admit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Infer(tensor.New(1, 8)); err != nil {
				t.Error(err)
			}
		}()
	}
	// One request wedges the loop in its forward, depth more fill the queue.
	admit()
	<-g.entered
	for i := 0; i < depth; i++ {
		admit()
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(e.queue) < depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d requests, want %d", len(e.queue), depth)
		}
		time.Sleep(100 * time.Microsecond)
	}
	for i := 0; i < overflow; i++ {
		if _, err := e.Infer(tensor.New(1, 8)); err != ErrOverloaded {
			t.Fatalf("request %d into a full queue: err %v, want ErrOverloaded", i, err)
		}
	}
	if got := e.Stats().Rejected; got != overflow {
		t.Fatalf("stats count %d rejections, callers saw %d", got, overflow)
	}
	close(g.release)
	wg.Wait()
	if st := e.Stats(); st.Requests != 1+depth || st.Rejected != overflow {
		t.Fatalf("after release: %d served, %d rejected, want %d and %d", st.Requests, st.Rejected, 1+depth, overflow)
	}
}

// TestServeCloseDrains pins graceful shutdown: requests queued before Close
// are all answered, requests after Close get ErrClosed, and Close is
// idempotent.
func TestServeCloseDrains(t *testing.T) {
	rng := tensor.NewRNG(37)
	m := nn.BuildMLP("dmlp", []int{8, 8, 3}, rng)
	e := New(newInferenceState(m), Config{MaxBatch: 4, QueueDepth: 32})

	const n = 12
	results := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := tensor.New(1, 8)
			tensor.FillNormal(x, 1, tensor.NewRNG(uint64(100+i)))
			_, results[i] = e.Infer(x)
		}(i)
	}
	time.Sleep(2 * time.Millisecond) // let the submissions reach the queue
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	served := 0
	for i, err := range results {
		switch err {
		case nil:
			served++
		case ErrClosed, ErrOverloaded:
			// Raced Close or a momentarily full queue — acceptable losses;
			// what matters is that nothing hangs and nothing else fails.
		default:
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if served == 0 {
		t.Fatal("Close drained zero requests")
	}
	if _, err := e.Infer(tensor.New(1, 8)); err != ErrClosed {
		t.Fatalf("post-Close Infer returned %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestServeShapeContract pins the fixed-shape admission rule: the first
// request fixes the sample shape and later mismatches are rejected up
// front, as is a nil or empty sample.
func TestServeShapeContract(t *testing.T) {
	rng := tensor.NewRNG(41)
	m := nn.BuildMLP("cmlp", []int{8, 8, 3}, rng)
	e := New(newInferenceState(m), Config{MaxBatch: 2})
	defer e.Close()

	x := tensor.New(1, 8)
	tensor.FillNormal(x, 1, rng)
	if _, err := e.Infer(x); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Infer(tensor.New(1, 9)); err == nil {
		t.Fatal("mismatched sample shape admitted")
	}
	if _, err := e.Infer(tensor.New(2, 8)); err == nil {
		t.Fatal("mismatched batch dim admitted")
	}
	if _, err := e.Infer(nil); err == nil {
		t.Fatal("nil sample admitted")
	}
	// The matching shape still works after rejections.
	if _, err := e.Infer(x); err != nil {
		t.Fatal(err)
	}
}

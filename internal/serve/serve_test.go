package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
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

// sparsifiedMLP builds a pruned MLP whose Linears execute through CSR
// weights (Sparsify).
func sparsifiedMLP(rng *tensor.RNG, sparsity float64, dims []int) *nn.Model {
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

// serveAll has clients goroutines issue n single-sample requests in all,
// request i serving samples[i%len(samples)], and returns each response's
// data and each request's round trip from its first submit to its response.
// An overload rejection is retried after a backoff that doubles from 50 µs
// up to 6.4 ms: the engine is measured under saturation, not shed.
func serveAll(t *testing.T, e *Engine, samples []*tensor.Tensor, n, clients int) ([][]float32, []time.Duration) {
	t.Helper()
	got := make([][]float32, n)
	lat := make([]time.Duration, n)
	errs := make([]error, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				backoff := 50 * time.Microsecond
				t0 := time.Now()
				for {
					y, err := e.Infer(samples[i%len(samples)])
					if err == nil {
						got[i] = y.Data()
						break
					}
					if err != ErrOverloaded {
						errs[c] = fmt.Errorf("request %d: %w", i, err)
						return
					}
					time.Sleep(backoff)
					if backoff < 5*time.Millisecond {
						backoff *= 2
					}
				}
				lat[i] = time.Since(t0)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return got, lat
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
			got, _ := serveAll(t, e, tc.samples, len(tc.samples), 6)
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
// Sparsify'd model served through the engine matches its offline forward on
// the CSR kernels.
func TestServeSparsifiedBitwise(t *testing.T) {
	t.Run("sparse", func(t *testing.T) {
		rng := tensor.NewRNG(23)
		m := sparsifiedMLP(rng, 0.9, []int{16, 32, 6})
		samples := normalSamples(rng, 20, 1, 16)

		st := newInferenceState(m) // quantizes in place; refs must follow
		refs := offlineRefs(m, samples)
		e := New(st, Config{MaxBatch: 4})
		got, _ := serveAll(t, e, samples, len(samples), 5)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, refs, got)
	})
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
// the m ∈ {1,2,3} products that used to take a different kernel; the GPT
// covers attention's A·Bᵀ products; the Sparsify'd MLP covers the CSR
// kernels at 30%, 50% and 90% sparsity.
func TestServeBucketInvariant(t *testing.T) {
	type fixture func(*testing.T, *tensor.RNG) (*nn.Model, []*tensor.Tensor)
	sparsified := func(sparsity float64) fixture {
		return func(_ *testing.T, rng *tensor.RNG) (*nn.Model, []*tensor.Tensor) {
			return sparsifiedMLP(rng, sparsity, []int{24, 48, 6}), normalSamples(rng, 8, 1, 24)
		}
	}
	for _, tc := range []struct {
		name  string
		build fixture
	}{
		{"mlp", func(_ *testing.T, rng *tensor.RNG) (*nn.Model, []*tensor.Tensor) {
			return nn.BuildMLP("imlp", []int{24, 48, 32, 6}, rng), normalSamples(rng, 8, 1, 24)
		}},
		{"gpt", func(_ *testing.T, rng *tensor.RNG) (*nn.Model, []*tensor.Tensor) { return tinyGPT(rng, 8) }},
		{"sparsified/auto30", sparsified(0.3)},
		{"sparsified/auto50", sparsified(0.5)},
		{"sparsified/auto90", sparsified(0.9)},
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

// poison is a pass-through first layer that panics on any sample whose
// first token is id: a forward defect on an input admission accepts.
type poison struct{ id float32 }

func (p poison) Forward(_ *tensor.Arena, x *tensor.Tensor, _ bool) (*tensor.Tensor, any) {
	for i := 0; i < x.Len(); i += 6 { // tinyGPT's samples are 6 tokens
		if x.Data()[i] == p.id {
			panic(fmt.Sprintf("poison: sample starts with token %v", p.id))
		}
	}
	return x, nil
}

func (poison) Backward(*tensor.Arena, any, *tensor.Tensor) *tensor.Tensor {
	panic("poison: forward-only")
}

func (poison) Params() []*nn.Param { return nil }

// TestServePanicIsolated: a sample the model panics on (one that starts
// with a token a poisoned first layer rejects; admission cannot see it, as it
// sees a NaN or an out-of-vocab id) fails its own request with a *PanicError
// and nothing else — requests before and after it are answered with the
// right bits.
func TestServePanicIsolated(t *testing.T) {
	m, good := tinyGPT(tensor.NewRNG(53), 6)
	st := newInferenceState(m)
	refs := offlineRefs(m, good)
	m.Layers = append([]nn.Layer{poison{19}}, m.Layers...) // no good sample starts with 19
	e := New(st, Config{MaxBatch: 4})
	defer e.Close()

	got := make([][]float32, len(good))
	for i, x := range good {
		if i == len(good)/2 {
			_, err := e.Infer(nn.TokensToTensor([]int{19, 1, 2, 3, 4, 5}))
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
// batch that succeeds fixes the sample shape and later mismatches are
// rejected up front, as is a nil or empty sample.
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

// TestServeMalformedFirstRequest: a malformed first request fails alone and
// fixes nothing — the sample shape is committed by the first batch that
// succeeds. Served one at a time, a (1, 17) sample to a 16-feature MLP panics,
// the (1, 16) samples after it are served with the offline bits, and only
// then is (1, 17) refused as a shape mismatch. Queued together behind a
// parked forward, samples of different shapes ride in different batches.
func TestServeMalformedFirstRequest(t *testing.T) {
	rng := tensor.NewRNG(47)
	m := nn.BuildMLP("fmlp", []int{16, 8, 3}, rng)
	st := newInferenceState(m)
	good := normalSamples(rng, 2, 1, 16)
	refs := offlineRefs(m, good)
	bad := tensor.New(1, 17)
	var pe *PanicError

	t.Run("sequential", func(t *testing.T) {
		e := New(st, Config{MaxBatch: 4})
		defer e.Close()
		if _, err := e.Infer(bad); !errors.As(err, &pe) {
			t.Fatalf("malformed first sample returned %v, want a *PanicError", err)
		}
		got := make([][]float32, len(good))
		for i, x := range good {
			y, err := e.Infer(x)
			if err != nil {
				t.Fatalf("well-formed sample %d after a malformed first one: %v", i, err)
			}
			got[i] = y.Data()
		}
		assertBitwise(t, refs, got)
		if _, err := e.Infer(bad); err == nil || errors.As(err, &pe) {
			t.Fatalf("malformed sample after a served batch returned %v, want a shape refusal", err)
		}
	})

	t.Run("queued", func(t *testing.T) {
		g := gated(m)
		defer func() { m.Layers = m.Layers[1:] }()
		e := New(st, Config{MaxBatch: 4})
		defer e.Close()
		release := sync.OnceFunc(func() { close(g.release) })
		defer release() // before Close, should a check fail with the loop parked
		errs := make([]chan error, 3)
		var served []float32
		submit := func(i int, x *tensor.Tensor) {
			errs[i] = make(chan error, 1)
			go func() {
				y, err := e.Infer(x)
				if err == nil {
					served = y.Data()
				}
				errs[i] <- err
			}()
		}
		waitQueued := func(n int) {
			deadline := time.Now().Add(10 * time.Second)
			for len(e.queue) < n {
				if time.Now().After(deadline) {
					t.Fatalf("queue holds %d requests, want %d", len(e.queue), n)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		submit(0, bad) // parks the loop in its forward
		<-g.entered
		submit(1, good[0])
		waitQueued(1)
		submit(2, bad)
		waitQueued(2)
		release()
		if err := <-errs[0]; !errors.As(err, &pe) {
			t.Fatalf("malformed first sample returned %v, want a *PanicError", err)
		}
		if err := <-errs[1]; err != nil {
			t.Fatalf("well-formed sample queued behind it: %v", err)
		}
		assertBitwise(t, refs[:1], [][]float32{served})
		if err := <-errs[2]; err == nil || errors.As(err, &pe) {
			t.Fatalf("malformed sample queued after the well-formed one returned %v, want a shape refusal", err)
		}
		if s := e.Stats(); s.Requests != 1 || s.Batches != 1 || s.Failed != 2 {
			t.Fatalf("stats %+v; want 1 request in 1 batch and 2 failed", s)
		}
	})
}

// TestServeBadSampleFailsAlone: a sample the model would panic on or read
// wrong — a NaN token id, an id out of vocab, a fractional id, a ±Inf
// feature — is refused at admission with ErrInvalidSample, so it never
// joins a batch. Queued while the loop is parked in a forward, each bad
// request fails alone and at once, and the well-formed requests queued
// around it ride the next batch together and are answered with the offline
// bits.
func TestServeBadSampleFailsAlone(t *testing.T) {
	rng := tensor.NewRNG(53)
	m, good := tinyGPT(rng, 4)
	st := newInferenceState(m)
	refs := offlineRefs(m, good)
	badIDs := func(v float32) *tensor.Tensor {
		x := good[0].Clone()
		x.Data()[3] = v
		return x
	}
	bads := []*tensor.Tensor{badIDs(float32(math.NaN())), badIDs(20), badIDs(-1), badIDs(2.5), badIDs(float32(math.Inf(1)))}

	g := gated(m)
	defer func() { m.Layers = m.Layers[1:] }()
	e := New(st, Config{MaxBatch: 8}) // the five batch-mates ride one batch
	defer e.Close()
	release := sync.OnceFunc(func() { close(g.release) })
	defer release()
	type result struct {
		y   *tensor.Tensor
		err error
	}
	submit := func(x *tensor.Tensor) chan result {
		c := make(chan result, 1)
		go func() {
			y, err := e.Infer(x)
			c <- result{y, err}
		}()
		return c
	}
	first := submit(good[0]) // parks the loop in its forward
	<-g.entered
	var mates []chan result
	for i, x := range bads {
		mates = append(mates, submit(good[1+i%3]))
		if r := <-submit(x); !errors.Is(r.err, ErrInvalidSample) {
			t.Fatalf("bad sample %d (%v) returned %v, want ErrInvalidSample", i, x.Data(), r.err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(e.queue) < len(mates) {
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d requests, want %d", len(e.queue), len(mates))
		}
		time.Sleep(50 * time.Microsecond)
	}
	release()
	if r := <-first; r.err != nil {
		t.Fatalf("first sample: %v", r.err)
	} else {
		assertBitwise(t, refs[:1], [][]float32{r.y.Data()})
	}
	for i, c := range mates {
		r := <-c
		if r.err != nil {
			t.Fatalf("well-formed sample %d queued beside the bad ones: %v", i, r.err)
		}
		assertBitwise(t, refs[1+i%3:2+i%3], [][]float32{r.y.Data()})
	}
	if s := e.Stats(); s.Failed != 0 || s.Requests != int64(1+len(mates)) {
		t.Fatalf("stats %+v; want %d requests and none failed", s, 1+len(mates))
	}
}

// p99Floor is the most TestServeP99Floor lets a served request's p99 round
// trip take.
const p99Floor = 25 * time.Millisecond

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestServeP99Floor is the floor under serving latency: samo-serve's default
// GPT (hidden 32, one block, seq 12, vocab 48) behind a default engine, 400
// requests from 12 closed-loop clients. The engine never holds a request
// back, so a p99 round trip over p99Floor means requests queue behind
// forwards. The fastest p99 of three runs is gated (2 vCPUs: 0.9–1.3 ms).
// It skips under -race and -short, and on one CPU, where the engine and its
// clients contend for one core and latency measures the scheduler.
func TestServeP99Floor(t *testing.T) {
	if testing.Short() || raceBuild() || runtime.NumCPU() < 2 {
		t.Skip("the latency floor needs two CPUs and an optimized, full-length run")
	}
	const seq, vocab, requests, clients = 12, 48, 400, 12
	m := nn.BuildGPT(nn.GPTConfig{Name: "serve", Layers: 1, Hidden: 32, Heads: 4, Seq: seq, Vocab: vocab}, tensor.NewRNG(1))
	samples := make([]*tensor.Tensor, 64)
	for i := range samples {
		ids := make([]int, seq)
		for j := range ids {
			ids[j] = (i*7 + j*5) % vocab
		}
		samples[i] = nn.TokensToTensor(ids)
	}
	e := New(newInferenceState(m), Config{})
	defer e.Close()
	best := time.Duration(math.MaxInt64)
	for run := 0; run < 3; run++ {
		_, lat := serveAll(t, e, samples, requests, clients)
		slices.Sort(lat)
		p50, p99 := lat[requests/2-1], lat[requests*99/100-1] // nearest rank
		t.Logf("run %d: p50 %v, p99 %v", run, p50, p99)
		best = min(best, p99)
	}
	st := e.Stats()
	t.Logf("p99 %v (floor %v); %d batches, mean batch %.2f", best, p99Floor, st.Batches, st.MeanBatch())
	if best > p99Floor {
		t.Errorf("served p99 %v over the %v floor: requests are queueing behind forwards", best, p99Floor)
	}
}

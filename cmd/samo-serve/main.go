// samo-serve runs the end-to-end serving path: train briefly, hand the
// checkpoint to a forward-only InferenceState (no gradients, no optimizer
// state), and serve concurrent single-sample requests through the dynamic
// micro-batching engine.
//
// Two modes:
//
//	samo-serve -mode smoke     # serve N concurrent requests, drain, and
//	                           # verify every response is bitwise-identical
//	                           # to the offline inference forward of its
//	                           # sample alone
//	samo-serve -mode loadtest  # drive the engine under concurrency and
//	                           # write p50/p99 latency + throughput JSON
//	                           # (BENCH_serving.json) to -out
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	samo "github.com/sparse-dl/samo"
	"github.com/sparse-dl/samo/internal/ckpt"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/data"
	"github.com/sparse-dl/samo/internal/serve"
	"github.com/sparse-dl/samo/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the testable body of the command: flags parse from args, output
// goes to out, and failures return instead of exiting the process.
func run(args []string, out io.Writer) error {
	// The serve engine's Close flushes the GEMM autotuner's table, but every
	// error exit path should too — same contract as the other cmds.
	defer func() { _ = samo.FlushTuneTable() }()
	fs := flag.NewFlagSet("samo-serve", flag.ContinueOnError)
	// Parse errors are returned (main prints them once, to stderr);
	// -h gets the usage on the success writer and a clean exit.
	fs.SetOutput(io.Discard)
	mode := fs.String("mode", "smoke", "smoke (verify served outputs against the offline forward) or loadtest (write a latency/throughput report)")
	modelKind := fs.String("model", "gpt", "model family: gpt or mlp")
	hidden := fs.Int("hidden", 32, "model width")
	layers := fs.Int("layers", 1, "transformer blocks (gpt)")
	useSAMO := fs.Bool("samo", false, "train with SAMO-compressed states (exercises compressed checkpoints)")
	sparsity := fs.Float64("sparsity", 0.9, "pruned fraction when -samo is set")
	trainIters := fs.Int("train-iters", 4, "training steps before the checkpoint handoff (0 = serve the fresh init)")
	requests := fs.Int("requests", 64, "total requests to serve")
	concurrency := fs.Int("concurrency", 8, "concurrent client goroutines")
	maxBatch := fs.Int("max-batch", 8, "most samples per forward (what is queued, padded to the next power of two)")
	queueDepth := fs.Int("queue", 0, "admission queue depth (0 = 4x max-batch)")
	ckptDir := fs.String("checkpoint-dir", "", "checkpoint handoff directory (empty = a temp dir)")
	outPath := fs.String("out", "", "loadtest report file (empty = stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		return err
	}
	if *mode != "smoke" && *mode != "loadtest" {
		return fmt.Errorf("samo-serve: -mode %q: want smoke or loadtest", *mode)
	}

	// --- Build, train, checkpoint. ------------------------------------------
	const seq, vocab, mlpIn, mlpClasses = 12, 48, 24, 10
	gptCfg := samo.GPTConfig{Name: "serve", Layers: *layers, Hidden: *hidden,
		Heads: 4, Seq: seq, Vocab: vocab}
	build := func() *samo.Model {
		if *modelKind == "mlp" {
			return samo.NewMLP("serve", []int{mlpIn, *hidden, mlpClasses}, samo.NewRNG(1))
		}
		return samo.NewGPT(gptCfg, samo.NewRNG(1))
	}
	if *modelKind != "gpt" && *modelKind != "mlp" {
		return fmt.Errorf("samo-serve: -model %q: want gpt or mlp", *modelKind)
	}

	var pr *samo.PruneResult
	smode := samo.ModeDense
	if *useSAMO {
		pr = samo.PruneMagnitude(build(), *sparsity)
		smode = samo.ModeSAMO
	}
	newOpt := func() samo.Optimizer { return samo.NewAdamW(3e-3, 0.01) }
	state := samo.NewState(build(), newOpt(), smode, pr)
	trainer := samo.NewTrainer(state)

	corpus := data.SynthText("serve-corpus", vocab, 20000, 2)
	mlpRNG := samo.NewRNG(7)
	cursor := 0
	for i := 0; i < *trainIters; i++ {
		if *modelKind == "mlp" {
			x := samo.NewTensor(8, mlpIn)
			samo.FillNormal(x, 1, mlpRNG)
			targets := make([]int, 8)
			for j := range targets {
				targets[j] = (i + j) % mlpClasses
			}
			trainer.TrainStep(x, targets)
		} else {
			b, c := corpus.LMBatch(cursor, 4, seq)
			cursor = c
			trainer.TrainStep(b.Input, b.Targets)
		}
	}

	dir := *ckptDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "samo-serve-ckpt-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	tag := fmt.Sprintf("serve-%s-h%d-l%d-%v", *modelKind, *hidden, *layers, smode)
	mgr, err := ckpt.New(ckpt.Options{Dir: dir, Shards: 1, Tag: tag})
	if err != nil {
		return err
	}
	if err := mgr.Save(*trainIters, 0, state); err != nil {
		return err
	}

	// The serving state: a second, independently built model whose training
	// machinery never exists. Load verifies tag + fingerprint + CRC, then
	// reconstructs dense fp16 weights from the checkpoint's θ32.
	infState := core.NewInferenceState(build(), newOpt(), smode, pr)
	if err := mgr.Load(*trainIters, 0, infState); err != nil {
		return err
	}
	mem := infState.Memory()
	fmt.Fprintf(out, "serving %s: %d params, resident %.2f MiB (training state would be %.2f MiB), gemm=%s\n",
		tag, state.Model().NumParams(),
		float64(mem.Total())/(1<<20), float64(state.Memory().Total())/(1<<20), samo.GEMMKernel())

	// --- Deterministic request samples. --------------------------------------
	nSamples := *requests
	if *mode == "loadtest" && nSamples > 64 {
		nSamples = 64 // loadtest cycles a fixed pool; smoke verifies each
	}
	samples := make([]*tensor.Tensor, nSamples)
	sCursor := 0
	sRNG := samo.NewRNG(11)
	for i := range samples {
		if *modelKind == "mlp" {
			x := samo.NewTensor(1, mlpIn)
			samo.FillNormal(x, 1, sRNG)
			samples[i] = x
		} else {
			b, c := corpus.LMBatch(sCursor, 1, seq)
			sCursor = c
			samples[i] = b.Input
		}
	}

	engine := serve.New(infState, serve.Config{MaxBatch: *maxBatch, QueueDepth: *queueDepth})

	if *mode == "loadtest" {
		rep, err := serve.LoadTest(engine, tag, func(i int) *tensor.Tensor {
			return samples[i%len(samples)]
		}, *requests, *concurrency)
		if cerr := engine.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		blob = append(blob, '\n')
		if *outPath == "" {
			_, err = out.Write(blob)
			return err
		}
		if err := os.WriteFile(*outPath, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "loadtest: %d requests x%d concurrency: p50 %.3f ms, p99 %.3f ms, %.0f req/s -> %s\n",
			rep.Requests, rep.Concurrency, rep.P50Ms, rep.P99Ms, rep.ThroughputRPS, *outPath)
		return nil
	}

	// --- Smoke: serve concurrently, drain, verify bitwise. -------------------
	// Offline references come from the TRAINED state's inference forward of
	// each sample alone. A pass certifies the checkpoint handoff and the
	// batching engine at once — ckpt-loaded weights match trained weights,
	// and a sample served among arbitrary concurrent traffic, in whatever
	// bucket it landed, matches its own forward bit for bit (the forward
	// kernels are row-invariant, so neither WHO shares the batch nor how
	// many can matter).
	refs := make([][]float32, len(samples))
	for i, x := range samples {
		refs[i] = state.Model().Infer(nil, x).Data()
	}

	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make([]error, *concurrency)
	for c := 0; c < *concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(samples) {
					return
				}
				var y *tensor.Tensor
				for {
					var err error
					y, err = engine.Infer(samples[i])
					if err == nil {
						break
					}
					if err != serve.ErrOverloaded {
						errs[c] = err
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
				if len(y.Data()) != len(refs[i]) {
					errs[c] = fmt.Errorf("request %d: served %d values, offline %d", i, len(y.Data()), len(refs[i]))
					return
				}
				for j, v := range y.Data() {
					if math.Float32bits(v) != math.Float32bits(refs[i][j]) {
						errs[c] = fmt.Errorf("request %d: served[%d]=%x != offline %x (not bitwise-identical)",
							i, j, math.Float32bits(v), math.Float32bits(refs[i][j]))
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if err := engine.Close(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	st := engine.Stats()
	fmt.Fprintf(out, "smoke ok: %d concurrent requests bitwise-identical to the offline forward (%d batches, mean batch %.2f, %d padded samples, %d arena bytes)\n",
		len(samples), st.Batches, st.MeanBatch(), st.PaddedSamples, st.ArenaBytes)
	return nil
}

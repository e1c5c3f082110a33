// scaling_study drives the calibrated Summit simulator over a GPU sweep for
// one of the paper's Table I models, printing the strong-scaling series of
// Figures 6–7 plus the per-phase breakdown of Figure 8 — the "what would
// SAMO buy me at N GPUs" planning workflow. With -sparse-exec it instead
// MEASURES the sparse execution path on this host: the same pruned MLP
// trained masked-dense versus through CSR kernels (samo.Sparsify),
// reporting per-step time, the pruned-FLOPs speedup and the model-state
// memory both ways.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	samo "github.com/sparse-dl/samo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the testable body of the example: flags parse from args, output
// goes to out, and failures return instead of exiting the process.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scaling_study", flag.ContinueOnError)
	// Parse errors are returned (main prints them once, to stderr);
	// -h gets the usage on the success writer and a clean exit.
	fs.SetOutput(io.Discard)
	modelName := fs.String("model", "2.7B", "GPT model: XL, 2.7B, 6.7B or 13B")
	sparsity := fs.Float64("sparsity", 0.9, "pruned fraction for SAMO")
	sparseExec := fs.Bool("sparse-exec", false,
		"measure the real sparse execution path (CSR kernels) on this host instead of simulating")
	schedule := fs.Bool("schedule", false,
		"sweep gradual-pruning schedules on this host and print the accuracy-proxy vs speedup frontier")
	steps := fs.Int("steps", 8, "training steps per path in -sparse-exec and -schedule modes")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		return err
	}
	// Validate before any pruning call: an out-of-range target would
	// otherwise panic inside the pruning package (its contract is validated
	// input), and every mode below feeds -sparsity to it.
	if *sparsity < 0 || *sparsity >= 1 {
		return fmt.Errorf("-sparsity %g outside [0,1)", *sparsity)
	}
	if *schedule {
		return runScheduleStudy(out, *sparsity, *steps)
	}
	if *sparseExec {
		return runSparseExec(out, *sparsity, *steps)
	}

	configs := map[string]samo.GPTConfig{
		"XL": samo.GPT3XL, "2.7B": samo.GPT3o2B7, "6.7B": samo.GPT3o6B7, "13B": samo.GPT3o13B,
	}
	cfg, ok := configs[*modelName]
	if !ok {
		return fmt.Errorf("unknown model %q (XL, 2.7B, 6.7B, 13B)", *modelName)
	}

	m := samo.Summit()
	fmt.Fprintf(out, "strong scaling of %s (batch %d) on %s, sparsity %.2f\n\n",
		cfg.Name, cfg.BatchSize, m.Name, *sparsity)
	fmt.Fprintf(out, "%6s %12s %12s %9s %30s\n", "GPUs", "AxoNN(s)", "+SAMO(s)", "speedup", "SAMO breakdown (cmp/p2p/bub/col)")

	for g := cfg.MinGPUs; g <= cfg.MaxGPUs; g *= 2 {
		ax := samo.EstimateGPT(cfg, m, g, false, *sparsity)
		sa := samo.EstimateGPT(cfg, m, g, true, *sparsity)
		if !ax.Feasible || !sa.Feasible {
			fmt.Fprintf(out, "%6d  infeasible\n", g)
			continue
		}
		fmt.Fprintf(out, "%6d %12.3f %12.3f %8.0f%% %10.2f/%.2f/%.2f/%.2f\n",
			g, ax.BatchTime, sa.BatchTime,
			100*(ax.BatchTime-sa.BatchTime)/ax.BatchTime,
			sa.Compute, sa.P2P, sa.Bubble, sa.Collective)
	}

	fmt.Fprintf(out, "\ndevice layouts at %d GPUs:\n", cfg.MaxGPUs)
	ax := samo.EstimateGPT(cfg, m, cfg.MaxGPUs, false, *sparsity)
	sa := samo.EstimateGPT(cfg, m, cfg.MaxGPUs, true, *sparsity)
	fmt.Fprintf(out, "  AxoNN: Ginter=%d x Gdata=%d (%d microbatches/pipeline)\n",
		ax.Plan.Ginter, ax.Plan.Gdata, ax.Plan.Micro)
	fmt.Fprintf(out, "  +SAMO: Ginter=%d x Gdata=%d (%d microbatches/pipeline)\n",
		sa.Plan.Ginter, sa.Plan.Gdata, sa.Plan.Micro)
	fmt.Fprintf(out, "\nutilization: AxoNN %.1f%% vs SAMO %.1f%% of aggregate fp16 peak\n",
		100*ax.PeakFraction, 100*sa.PeakFraction)
	return nil
}

// runSparseExec trains the same pruned MLP twice on this host — masked-dense
// and through the first-class sparse layers — and reports per-step time,
// speedup, loss parity and the model-state memory of each path.
func runSparseExec(out io.Writer, sparsity float64, steps int) error {
	if steps < 1 {
		return fmt.Errorf("-steps must be >= 1, got %d", steps)
	}
	const batch, in, hidden, classes = 64, 256, 256, 16
	build := func() *samo.Model {
		return samo.NewMLP("fc", []int{in, hidden, hidden, classes}, samo.NewRNG(7))
	}
	dense := build()
	pr := samo.PruneMagnitude(dense, sparsity)
	sparse := samo.Sparsify(build(), pr) // fresh twin: Sparsify shares unconverted layers

	x := samo.NewTensor(batch, in)
	samo.FillNormal(x, 1, samo.NewRNG(8))
	targets := make([]int, batch)
	rng := samo.NewRNG(9)
	for i := range targets {
		targets[i] = rng.Intn(classes)
	}

	// Pin the sparse path for the measurement: the CSR kernels are what is
	// timed, at any -sparsity — the density rule would run a model at or
	// below 75% dense-masked. (The masked-dense model has no sparse layers;
	// the pin is a no-op for it.)
	prevMode, err := samo.SetSparseCompute("sparse")
	if err != nil {
		return err
	}
	defer samo.SetSparseCompute(prevMode)

	fmt.Fprintf(out, "sparse execution on this host: %d-%d-%d-%d MLP, batch %d, sparsity %.2f, %d steps\n\n",
		in, hidden, hidden, classes, batch, sparsity, steps)
	run := func(label string, m *samo.Model) (msPerStep float64, loss float64, state *samo.State) {
		state = samo.NewState(m, samo.NewAdam(1e-3), samo.ModeSAMO, pr)
		tr := samo.NewTrainer(state)
		tr.TrainStep(x, targets) // warm pools, arena, caches
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			loss, _ = tr.TrainStep(x, targets)
		}
		msPerStep = float64(time.Since(t0)) / float64(steps) / 1e6
		fmt.Fprintf(out, "%-14s %8.3f ms/step   loss %.4f   model state %d bytes\n",
			label, msPerStep, loss, state.Memory().Total())
		return
	}
	dms, dloss, _ := run("masked-dense", dense)
	sms, sloss, _ := run("sparse-exec", sparse)
	fmt.Fprintf(out, "\npruned-FLOPs speedup: %.2fx (dense/sparse step time)\n", dms/sms)
	if d := dloss - sloss; d > 0.05 || d < -0.05 {
		fmt.Fprintf(out, "NOTE: losses diverge (%.4f vs %.4f) — different summation orders only\n", dloss, sloss)
	}
	return nil
}

// runScheduleStudy trains the sparse-exec MLP under several gradual-pruning
// schedules — all starting from the same one-shot initial sparsity and
// cubically ramping to different final sparsities — and prints one frontier
// row per schedule: the final eval loss (accuracy proxy), mean step time,
// speedup over the masked-dense reference, and the final model-state bytes
// (which ratchet down with every prune event). The frontier is the
// accuracy-vs-speedup trade the schedule buys.
func runScheduleStudy(out io.Writer, initial float64, steps int) error {
	if steps < 4 {
		return fmt.Errorf("-steps must be >= 4 for a schedule sweep, got %d", steps)
	}
	const batch, in, hidden, classes = 64, 256, 256, 16
	build := func() *samo.Model {
		return samo.NewMLP("fc", []int{in, hidden, hidden, classes}, samo.NewRNG(7))
	}
	x := samo.NewTensor(batch, in)
	samo.FillNormal(x, 1, samo.NewRNG(8))
	targets := make([]int, batch)
	rng := samo.NewRNG(9)
	for i := range targets {
		targets[i] = rng.Intn(classes)
	}
	// Pin the sparse path (see runSparseExec) so every schedule is timed on
	// the CSR kernels; the masked-dense reference has no sparse layers.
	prevMode, err := samo.SetSparseCompute("sparse")
	if err != nil {
		return err
	}
	defer samo.SetSparseCompute(prevMode)

	// The cubic ramp spans the middle half of the run so every schedule has
	// warm-up steps before and adaptation steps after its events.
	begin, end := steps/4, steps-steps/4
	freq := (end - begin) / 3
	if freq < 1 {
		freq = 1
	}
	type entry struct {
		label string
		sched *samo.PruneSchedule
	}
	entries := []entry{{label: "one-shot", sched: nil}}
	for _, final := range []float64{0.95, 0.98} {
		if final <= initial {
			continue
		}
		f := final
		entries = append(entries, entry{
			label: fmt.Sprintf("cubic->%.2f", f),
			sched: &samo.PruneSchedule{Initial: initial, Final: f,
				BeginStep: begin, EndStep: end, Frequency: freq},
		})
	}

	train := func(m *samo.Model, pr *samo.PruneResult, sched *samo.PruneSchedule) (msPerStep, evalLoss float64, stateBytes int64, err error) {
		state := samo.NewState(m, samo.NewAdam(1e-3), samo.ModeSAMO, pr)
		tr := samo.NewTrainer(state)
		var pruner *samo.GradualPruner
		if sched != nil {
			if pruner, err = samo.NewGradualPruner(state, *sched); err != nil {
				return 0, 0, 0, err
			}
		}
		tr.TrainStep(x, targets) // warm pools, arena, caches
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			tr.TrainStep(x, targets)
			if pruner != nil {
				pruner.MaybePrune(i)
			}
		}
		msPerStep = float64(time.Since(t0)) / float64(steps) / 1e6
		return msPerStep, tr.EvalLoss(x, targets), state.Memory().Total(), nil
	}

	fmt.Fprintf(out, "gradual-pruning schedule frontier: %d-%d-%d-%d MLP, batch %d, initial sparsity %.2f, %d steps\n",
		in, hidden, hidden, classes, batch, initial, steps)
	fmt.Fprintf(out, "ramp: steps %d-%d, every %d steps\n\n", begin, end, freq)
	pr := samo.PruneMagnitude(build(), initial)
	dms, dloss, dbytes, err := train(build(), pr, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-14s %9s %10s %9s %14s\n", "schedule", "evalloss", "ms/step", "speedup", "state bytes")
	fmt.Fprintf(out, "%-14s %9.4f %10.3f %8.2fx %14d   (masked-dense reference)\n", "dense-ref", dloss, dms, 1.0, dbytes)
	for _, e := range entries {
		// Fresh pruning result per run: gradual pruning shrinks the state's
		// private index clones, but the sparse layers own their patterns.
		epr := samo.PruneMagnitude(build(), initial)
		sm := samo.Sparsify(build(), epr)
		ms, loss, bytes, err := train(sm, epr, e.sched)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-14s %9.4f %10.3f %8.2fx %14d\n", e.label, loss, ms, dms/ms, bytes)
	}
	return nil
}

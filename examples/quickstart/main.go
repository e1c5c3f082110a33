// Quickstart: prune a small network, enable SAMO, train, and inspect the
// memory ledger; then run the pruned network through CSR kernels and prune
// it further while it trains — the five-minute tour of the public API.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

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
	fs := flag.NewFlagSet("quickstart", flag.ContinueOnError)
	// Parse errors are returned (main prints them once, to stderr);
	// -h gets the usage on the success writer and a clean exit.
	fs.SetOutput(io.Discard)
	steps := fs.Int("steps", 200, "training steps")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		return err
	}

	// 1. Build a model.
	rng := samo.NewRNG(42)
	model := samo.NewMLP("quickstart", []int{16, 64, 64, 4}, rng)
	fmt.Fprintf(out, "model: %d parameters\n", model.NumParams())

	// 2. Prune 90% of the weights by magnitude (the paper's setting).
	ticket := samo.PruneMagnitude(model, 0.9)
	fmt.Fprintf(out, "pruned to %.0f%% sparsity: %d of %d prunable weights survive\n",
		100*ticket.Sparsity(), ticket.KeptParams(), ticket.TotalParams())

	// 3. Enable SAMO: θ16 stays dense for fast kernels; θ32, gradients and
	// Adam states are stored compressed on a shared index.
	state := samo.NewState(model, samo.NewAdam(0.005), samo.ModeSAMO, ticket)

	// Compare against what dense mixed precision would cost.
	denseModel := samo.NewMLP("dense-ref", []int{16, 64, 64, 4}, samo.NewRNG(42))
	denseState := samo.NewState(denseModel, samo.NewAdam(0.005), samo.ModeDense, nil)
	fmt.Fprintf(out, "model-state memory: dense %d bytes -> SAMO %d bytes (%.0f%% saved)\n",
		denseState.Memory().Total(), state.Memory().Total(),
		100*(1-float64(state.Memory().Total())/float64(denseState.Memory().Total())))
	fmt.Fprintf(out, "analytical prediction at p=0.9: %.0f%% saved\n", samo.MemorySavingsPercent(0.9))

	// 4. Train on a toy task: classify by the sign pattern of two features.
	trainer := samo.NewTrainer(state)
	x := samo.NewTensor(64, 16)
	samo.FillNormal(x, 1, rng)
	targets := make([]int, 64)
	for i := range targets {
		k := 0
		if x.At(i, 0) > 0 {
			k += 2
		}
		if x.At(i, 1) > 0 {
			k++
		}
		targets[i] = k
	}
	fmt.Fprintf(out, "initial loss: %.4f\n", trainer.EvalLoss(x, targets))
	for step := 1; step <= *steps; step++ {
		loss, _ := trainer.TrainStep(x, targets)
		if step%50 == 0 {
			fmt.Fprintf(out, "step %3d: loss %.4f\n", step, loss)
		}
	}
	fmt.Fprintf(out, "final loss: %.4f (pruned coordinates stayed exactly zero throughout)\n",
		trainer.EvalLoss(x, targets))

	// 5. Compute sparsely and prune further while training. Sparsify stores
	// each pruned weight as a CSR, so the kernels touch only the surviving
	// weights; a gradual pruner then ramps 90 -> 95% along Zhu & Gupta's
	// cubic schedule, and every prune event shrinks the state in place.
	sparseModel := samo.NewMLP("quickstart-csr", []int{16, 64, 64, 4}, samo.NewRNG(42))
	sparseTicket := samo.PruneMagnitude(sparseModel, 0.9)
	sparseState := samo.NewState(samo.Sparsify(sparseModel, sparseTicket), samo.NewAdam(0.005),
		samo.ModeSAMO, sparseTicket)
	ramp := samo.PruneSchedule{Initial: 0.9, Final: 0.95, BeginStep: 0, EndStep: 20, Frequency: 5}
	pruner, err := samo.NewGradualPruner(sparseState, ramp)
	if err != nil {
		return err
	}
	ledger := func(when string) {
		m := sparseState.Memory()
		fmt.Fprintf(out, "CSR model state %s: %d bytes (θ16 %d, ∇θ16 %d, θ32 %d, Adam %d, index %d)\n",
			when, m.Total(), m.Theta16, m.Grad16, m.Theta32, m.OptStates, m.Index+m.TempCopy)
	}
	ledger("at 90%")
	sparseTrainer := samo.NewTrainer(sparseState)
	for step := 0; step <= ramp.EndStep; step++ {
		sparseTrainer.TrainStep(x, targets)
		pruner.MaybePrune(step)
	}
	ledger("after the ramp to 95%")
	fmt.Fprintf(out, "CSR loss after the ramp: %.4f\n", sparseTrainer.EvalLoss(x, targets))
	return nil
}

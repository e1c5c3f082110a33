package samo_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	samo "github.com/sparse-dl/samo"
)

func TestQuickstartFlow(t *testing.T) {
	// The README's quickstart, as a test: build, prune, enable SAMO, train.
	rng := samo.NewRNG(1)
	model := samo.NewMLP("demo", []int{8, 32, 4}, rng)
	ticket := samo.PruneMagnitude(model, 0.9)
	if s := ticket.Sparsity(); s < 0.85 || s > 0.95 {
		t.Fatalf("ticket sparsity %g", s)
	}
	state := samo.NewState(model, samo.NewAdam(0.01), samo.ModeSAMO, ticket)
	trainer := samo.NewTrainer(state)

	x := samo.NewTensor(16, 8)
	samo.FillNormal(x, 1, samo.NewRNG(2))
	targets := make([]int, 16)
	for i := range targets {
		targets[i] = i % 4
	}
	first := trainer.EvalLoss(x, targets)
	for i := 0; i < 40; i++ {
		trainer.TrainStep(x, targets)
	}
	if last := trainer.EvalLoss(x, targets); last >= first {
		t.Errorf("quickstart did not learn: %g -> %g", first, last)
	}
	// Memory ledger beats dense.
	denseState := samo.NewState(samo.NewMLP("demo", []int{8, 32, 4}, samo.NewRNG(1)),
		samo.NewAdam(0.01), samo.ModeDense, nil)
	if state.Memory().Total() >= denseState.Memory().Total() {
		t.Error("SAMO state must be smaller than dense at 90% sparsity")
	}
}

func TestMemoryModelFacade(t *testing.T) {
	if s := samo.MemorySavingsPercent(0.9); s < 77 || s > 79 {
		t.Errorf("savings at 0.9 = %g", s)
	}
}

func TestRunExperimentDispatch(t *testing.T) {
	for _, name := range samo.ExperimentNames() {
		if name == "fig4" {
			continue // training experiment, covered separately
		}
		var buf bytes.Buffer
		if !samo.RunExperiment(name, &buf, 0) {
			t.Errorf("experiment %q not recognized", name)
		}
		if buf.Len() == 0 {
			t.Errorf("experiment %q produced no output", name)
		}
	}
	if samo.RunExperiment("nonsense", io.Discard, 0) {
		t.Error("unknown experiment should return false")
	}
}

func TestExperimentNamesCoverPaper(t *testing.T) {
	names := strings.Join(samo.ExperimentNames(), " ")
	for _, want := range []string{"fig1", "fig8", "table1", "table2"} {
		if !strings.Contains(names, want) {
			t.Errorf("missing %s", want)
		}
	}
}

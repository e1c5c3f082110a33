package axonn

import (
	"math"
	"testing"

	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/nn"
)

func TestSingleRankDegenerateConfigMatchesSerial(t *testing.T) {
	// Ginter=1, Gdata=1, one microbatch: the engine collapses to serial
	// training and must match it bitwise.
	batches := makeBatches(4, 8, 1100)
	want, _ := serialLosses(51, nil, core.Dense, batches)
	res := Train(Config{Ginter: 1, Gdata: 1, Microbatch: 8, Mode: core.Dense},
		mlpBuilder(51), adamBuilder(), nil, batches)
	for i := range want {
		if res.Losses[i] != want[i] {
			t.Fatalf("batch %d: %g != %g", i, res.Losses[i], want[i])
		}
	}
}

func TestSingleRankWithMicrobatching(t *testing.T) {
	// Ginter=1 with several microbatches exercises the inline
	// forward+backward warm path (no pipeline messages at all).
	batches := makeBatches(3, 8, 1200)
	want, _ := serialLosses(53, nil, core.Dense, batches)
	res := Train(Config{Ginter: 1, Gdata: 1, Microbatch: 2, Mode: core.Dense},
		mlpBuilder(53), adamBuilder(), nil, batches)
	for i := range want {
		if math.Abs(res.Losses[i]-want[i]) > 5e-3*(1+math.Abs(want[i])) {
			t.Errorf("batch %d: %g vs %g", i, res.Losses[i], want[i])
		}
	}
}

func TestAsymmetricLayout4x2(t *testing.T) {
	// Deep pipeline with data parallelism: 4 stages × 2 groups = 8 ranks.
	pr := pruneMLP(57, 0.6)
	batch := makeBatches(1, 16, 1300)[0]
	var batches []Batch
	for i := 0; i < 12; i++ {
		batches = append(batches, batch)
	}
	res := Train(Config{Ginter: 4, Gdata: 2, Microbatch: 2, Mode: core.SAMO},
		mlpBuilder(57), adamBuilder(), pr, batches)
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Errorf("4x2 SAMO training did not learn: %g -> %g",
			res.Losses[0], res.Losses[len(res.Losses)-1])
	}
}

func TestP2PVolumeScalesWithMicrobatches(t *testing.T) {
	// Eq. 9's mechanism on the real fabric: halving the microbatch size
	// doubles the message count at constant total bytes.
	batches := makeBatches(1, 8, 1400)
	countMsgs := func(mbs int) (int64, int64) {
		res := Train(Config{Ginter: 2, Gdata: 1, Microbatch: mbs, Mode: core.Dense},
			mlpBuilder(59), adamBuilder(), nil, batches)
		var msgs, elems int64
		for r := 0; r < 2; r++ {
			msgs += res.Fabric.Stats(r).P2PMessages.Load()
			elems += res.Fabric.Stats(r).P2PElements.Load()
		}
		return msgs, elems
	}
	m4, e4 := countMsgs(4) // 2 microbatches
	m2, e2 := countMsgs(2) // 4 microbatches
	if m2 != 2*m4 {
		t.Errorf("message count %d vs %d: halving mbs must double messages", m2, m4)
	}
	if e2 != e4 {
		t.Errorf("total elements changed with mbs: %d vs %d", e2, e4)
	}
}

func TestEngineWithRecomputeLayers(t *testing.T) {
	// Activation checkpointing composes with the pipeline engine: wrapping
	// every layer leaves the training trajectory unchanged.
	batches := makeBatches(4, 8, 1500)
	plain := Train(Config{Ginter: 2, Gdata: 1, Microbatch: 8, Mode: core.Dense},
		mlpBuilder(61), adamBuilder(), nil, batches)
	wrapped := Train(Config{Ginter: 2, Gdata: 1, Microbatch: 8, Mode: core.Dense},
		func() *nn.Model { return nn.WithRecompute(mlpBuilder(61)()) },
		adamBuilder(), nil, batches)
	for i := range plain.Losses {
		if plain.Losses[i] != wrapped.Losses[i] {
			t.Fatalf("batch %d: recompute changed training: %g vs %g",
				i, plain.Losses[i], wrapped.Losses[i])
		}
	}
}

func TestLossScaleRecoveryDuringTraining(t *testing.T) {
	// Start with an absurd loss scale: the first step(s) overflow and are
	// skipped, the scaler halves until gradients fit, then training
	// proceeds and learns.
	batch := makeBatches(1, 16, 1600)[0]
	var batches []Batch
	for i := 0; i < 25; i++ {
		batches = append(batches, batch)
	}
	cfg := Config{Ginter: 2, Gdata: 2, Microbatch: 4, Mode: core.Dense,
		InitialLossScale: 1e9}
	res := Train(cfg, mlpBuilder(63), adamBuilder(), nil, batches)
	if res.SkippedSteps == 0 {
		t.Error("expected overflow skips with a 1e9 scale")
	}
	if res.SkippedSteps > 20 {
		t.Errorf("scaler failed to recover: %d skips", res.SkippedSteps)
	}
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Errorf("training did not recover after overflow: %g -> %g",
			res.Losses[0], res.Losses[len(res.Losses)-1])
	}
}

package axonn

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/comm"
	"github.com/sparse-dl/samo/internal/core"
)

// chaosCfg is the tiny layout every recovery test trains: 2 pipeline stages
// × 2 data groups over a 3-layer MLP; losses and θ32 are bitwise-comparable
// across runs.
func chaosCfg(dir string) Config {
	return Config{
		Ginter: 2, Gdata: 2, Microbatch: 2,
		Mode:          core.Dense,
		CheckpointDir: dir,
	}
}

// assertBitwiseEqual compares a recovered run against the uninterrupted
// golden: every per-batch loss float64-identical, every stage's serialized
// ModelState byte-identical.
func assertBitwiseEqual(t *testing.T, golden, got Result) {
	t.Helper()
	if got.Err != nil {
		t.Fatalf("recovered run failed: %v", got.Err)
	}
	if len(got.Losses) != len(golden.Losses) {
		t.Fatalf("loss count %d, golden %d", len(got.Losses), len(golden.Losses))
	}
	for i := range golden.Losses {
		if got.Losses[i] != golden.Losses[i] {
			t.Fatalf("batch %d loss %v != golden %v (must be bitwise)", i, got.Losses[i], golden.Losses[i])
		}
	}
	if len(got.StageStates) != len(golden.StageStates) {
		t.Fatalf("stage count %d, golden %d", len(got.StageStates), len(golden.StageStates))
	}
	for s := range golden.StageStates {
		if !bytes.Equal(got.StageStates[s], golden.StageStates[s]) {
			t.Fatalf("stage %d θ32/optimizer state diverged from golden after recovery", s)
		}
	}
	if got.SkippedSteps != golden.SkippedSteps {
		t.Fatalf("skipped steps %d != golden %d", got.SkippedSteps, golden.SkippedSteps)
	}
}

func TestTrainSurvivesRankCrash(t *testing.T) {
	batches := makeBatches(6, 8, 1100)
	golden := Train(chaosCfg(t.TempDir()), mlpBuilder(11), adamBuilder(), nil, batches)
	if golden.Err != nil {
		t.Fatalf("golden run: %v", golden.Err)
	}

	cfg := chaosCfg(t.TempDir())
	cfg.Fault = &comm.FaultPlan{CrashAtStep: map[int]int{2: 3}}
	res := Train(cfg, mlpBuilder(11), adamBuilder(), nil, batches)
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (warnings: %v)", res.Restarts, res.Warnings)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("recovery must surface a warning describing the abort")
	}
	assertBitwiseEqual(t, golden, res)
}

func TestCrashAtEveryStepBitwiseGolden(t *testing.T) {
	// The acceptance golden: a single-rank crash injected at EVERY step k
	// aborts cleanly and recovers to a bitwise-identical final state. Rank
	// choice rotates so every pipeline/data position gets hit.
	batches := makeBatches(5, 8, 1200)
	golden := Train(chaosCfg(t.TempDir()), mlpBuilder(7), adamBuilder(), nil, batches)
	if golden.Err != nil {
		t.Fatalf("golden run: %v", golden.Err)
	}
	for k := 0; k < len(batches); k++ {
		k := k
		t.Run(fmt.Sprintf("crash-step-%d", k), func(t *testing.T) {
			t.Parallel()
			cfg := chaosCfg(t.TempDir())
			cfg.Fault = &comm.FaultPlan{CrashAtStep: map[int]int{k % cfg.GPUs(): k}}
			res := Train(cfg, mlpBuilder(7), adamBuilder(), nil, batches)
			if res.Restarts != 1 {
				t.Fatalf("restarts = %d, want 1 (err: %v)", res.Restarts, res.Err)
			}
			assertBitwiseEqual(t, golden, res)
		})
	}
}

func TestCrashMidBatchCollective(t *testing.T) {
	// CrashAtOp lands INSIDE a batch (between a stage-group reduce and the
	// global consensus), the window where partial gradient state exists.
	// Recovery must discard it and still match the golden bitwise.
	batches := makeBatches(5, 8, 1300)
	golden := Train(chaosCfg(t.TempDir()), mlpBuilder(9), adamBuilder(), nil, batches)
	if golden.Err != nil {
		t.Fatalf("golden run: %v", golden.Err)
	}
	// Rank 1 (last stage, data group 0) enters 3 collectives per batch —
	// the gradient all-reduce, the overflow consensus, the loss average — so
	// ops 0..14 span the 5 batches; 14 is the final batch's loss reduce.
	for _, op := range []int{0, 3, 10, 14} {
		op := op
		t.Run(fmt.Sprintf("crash-op-%d", op), func(t *testing.T) {
			t.Parallel()
			cfg := chaosCfg(t.TempDir())
			cfg.Fault = &comm.FaultPlan{CrashAtOp: map[int]int{1: op}}
			res := Train(cfg, mlpBuilder(9), adamBuilder(), nil, batches)
			if res.Restarts == 0 {
				t.Fatal("fault did not fire")
			}
			assertBitwiseEqual(t, golden, res)
		})
	}
}

func TestMessageDropRecoveredByDeadline(t *testing.T) {
	// A silently dropped activation leaves the receiver blocked with no
	// failed rank to poison the fabric — only the deadline backstop can
	// detect it. The run must abort with a typed DeadlineError and recover
	// to the bitwise golden.
	batches := makeBatches(4, 8, 1400)
	golden := Train(chaosCfg(t.TempDir()), mlpBuilder(13), adamBuilder(), nil, batches)
	if golden.Err != nil {
		t.Fatalf("golden run: %v", golden.Err)
	}
	cfg := chaosCfg(t.TempDir())
	cfg.Fault = &comm.FaultPlan{DropP2PEvery: 7}
	cfg.CollectiveDeadline = 2 * time.Second
	res := Train(cfg, mlpBuilder(13), adamBuilder(), nil, batches)
	if res.Restarts == 0 {
		t.Fatalf("drop fault did not trigger recovery (err: %v)", res.Err)
	}
	assertBitwiseEqual(t, golden, res)
}

func TestAbortWithoutRecoverySurfacesTypedError(t *testing.T) {
	// MaxRestarts<0 disables recovery: the injected crash must surface as a
	// typed RankFailedError on Result.Err — promptly, with no deadlock.
	cfg := chaosCfg(t.TempDir())
	cfg.Fault = &comm.FaultPlan{CrashAtStep: map[int]int{1: 1}}
	cfg.MaxRestarts = -1
	res := Train(cfg, mlpBuilder(15), adamBuilder(), nil, makeBatches(4, 8, 1500))
	var rf *comm.RankFailedError
	if !errors.As(res.Err, &rf) {
		t.Fatalf("Err = %v, want RankFailedError", res.Err)
	}
	if rf.Rank != 1 || rf.Step != 1 {
		t.Fatalf("RankFailedError{%d,%d}, want {1,1}", rf.Rank, rf.Step)
	}
	if res.Restarts != 0 {
		t.Fatalf("restarts = %d with recovery disabled", res.Restarts)
	}
}

func TestRecoveryWithoutCheckpointReplaysFromScratch(t *testing.T) {
	// No checkpoint dir: recovery still works by replaying the whole run on
	// a fresh fabric (the failed hardware is replaced, state rebuilt from
	// batch 0). Results must match the golden exactly.
	batches := makeBatches(4, 8, 1600)
	cfg := chaosCfg("")
	golden := Train(cfg, mlpBuilder(17), adamBuilder(), nil, batches)
	if golden.Err != nil {
		t.Fatalf("golden run: %v", golden.Err)
	}
	cfg.Fault = &comm.FaultPlan{CrashAtStep: map[int]int{3: 2}}
	res := Train(cfg, mlpBuilder(17), adamBuilder(), nil, batches)
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (err: %v)", res.Restarts, res.Err)
	}
	assertBitwiseEqual(t, golden, res)
}

func TestResumeAcrossProcesses(t *testing.T) {
	// Simulated process restart: run A trains the first 3 batches and exits;
	// run B (fresh Train, Resume=true, same dir) trains the rest. B's final
	// stage states must be bitwise-identical to one uninterrupted run, and
	// the losses it computed must match the golden's tail.
	all := makeBatches(6, 8, 1700)
	golden := Train(chaosCfg(t.TempDir()), mlpBuilder(19), adamBuilder(), nil, all)
	if golden.Err != nil {
		t.Fatalf("golden run: %v", golden.Err)
	}

	dir := t.TempDir()
	cfgA := chaosCfg(dir)
	a := Train(cfgA, mlpBuilder(19), adamBuilder(), nil, all[:3])
	if a.Err != nil {
		t.Fatalf("run A: %v", a.Err)
	}
	cfgB := chaosCfg(dir)
	cfgB.Resume = true
	b := Train(cfgB, mlpBuilder(19), adamBuilder(), nil, all)
	if b.Err != nil {
		t.Fatalf("run B: %v", b.Err)
	}
	if b.StartBatch != 3 {
		t.Fatalf("run B resumed at %d, want 3", b.StartBatch)
	}
	for i := 3; i < len(all); i++ {
		if b.Losses[i] != golden.Losses[i] {
			t.Fatalf("batch %d loss %v != golden %v", i, b.Losses[i], golden.Losses[i])
		}
	}
	for s := range golden.StageStates {
		if !bytes.Equal(b.StageStates[s], golden.StageStates[s]) {
			t.Fatalf("stage %d state diverged after cross-process resume", s)
		}
	}
	// Resuming when everything is already trained is a no-op success.
	c := Train(cfgB, mlpBuilder(19), adamBuilder(), nil, all)
	if c.Err != nil || c.StartBatch != len(all) {
		t.Fatalf("fully-trained resume: start %d err %v", c.StartBatch, c.Err)
	}
}

func TestRecoveredRunKeepsSAMOCompression(t *testing.T) {
	// Fault tolerance must not disturb the paper's core property: a SAMO
	// run that recovers from a crash still trains, still matches its own
	// golden, and still reports compressed state.
	batches := makeBatches(4, 8, 1800)
	pr := pruneMLP(21, 0.5)
	cfg := chaosCfg(t.TempDir())
	cfg.Mode = core.SAMO
	golden := Train(cfg, mlpBuilder(21), adamBuilder(), pr, batches)
	if golden.Err != nil {
		t.Fatalf("golden run: %v", golden.Err)
	}
	cfg2 := chaosCfg(t.TempDir())
	cfg2.Mode = core.SAMO
	cfg2.Fault = &comm.FaultPlan{CrashAtStep: map[int]int{0: 2}}
	res := Train(cfg2, mlpBuilder(21), adamBuilder(), pr, batches)
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (err: %v)", res.Restarts, res.Err)
	}
	assertBitwiseEqual(t, golden, res)
}

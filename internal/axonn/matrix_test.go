package axonn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/comm"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// The engine's determinism contract as one table. An identity — model and
// pruning, seed, batch data, Gdata, Microbatch, prune schedule and initial
// loss scale — defines the bits a run computes, pinned as one fingerprint
// constant. Every invariant cell of it must reproduce that fingerprint: each
// pipeline depth Ginter (and the serial core.Trainer where the identity is
// one rank with one microbatch per batch), the local and TCP transports,
// masked-dense and SAMO storage, kernel worker counts, the ignored
// OverlapReduce field, nn.WithRecompute, and crash, drop, replay and resume
// points. Cells sharing a layout and a storage mode must also save the same
// StageStates bytes.

// identity is one row of the matrix.
type identity struct {
	name    string
	build   Builder
	pr      *prune.Result // nil: unpruned dense, no SAMO cells
	batches []Batch
	gdata   int
	mb      int
	sched   *prune.Schedule
	scale   float64 // initial loss scale (0 = the scaler's default)
	ginters int     // deepest pipeline in the matrix (0 = 3)
	chaos   bool    // add the crash, drop, replay and resume cells
	skips   int     // SkippedSteps every cell reports
	want    uint64  // layout-free fingerprint (identity.fingerprint)

	// legacy, when set, is the stateHash (losses and StageStates bytes) an
	// earlier hand-written test pinned, asserted on cell legacyCell. Cells of
	// one layout and storage mode save the same bytes, so it holds on each.
	legacy     uint64
	legacyCell string
}

// cell is one invariant point of an identity.
type cell struct {
	name      string // the subtest's name, when not the generated one
	ginter    int    // 0: the serial core.Trainer
	mode      core.Mode
	tcp       bool
	workers   int // > 0: tensor.SetWorkers for the run
	overlap   bool
	recompute bool
	ckpt      bool // checkpoint into a fresh directory
	fault     *comm.FaultPlan
	deadline  time.Duration
	resume    int // > 0: one run trains batches[:resume], a second resumes it
}

// layout names the cells that must save the same StageStates bytes.
func (c cell) layout() string {
	return fmt.Sprintf("g%d-%s", max(c.ginter, 1), strings.ToLower(c.mode.String()))
}

func (c cell) String() string {
	if c.name != "" {
		return c.name
	}
	s := c.layout()
	if c.ginter == 0 {
		s = "serial-" + strings.ToLower(c.mode.String())
	}
	if c.workers > 0 {
		s += fmt.Sprintf("-w%d", c.workers)
	}
	if c.overlap {
		s += "-overlap"
	}
	if c.recompute {
		s += "-recompute"
	}
	if c.tcp {
		s += "-tcp"
	}
	if f := c.fault; f != nil {
		if !c.ckpt {
			s += "-nockpt"
		}
		for r, k := range f.CrashAtStep {
			s += fmt.Sprintf("-crash-r%d-step%d", r, k)
		}
		for r, op := range f.CrashAtOp {
			s += fmt.Sprintf("-crash-r%d-op%d", r, op)
		}
		if f.DropP2PEvery > 0 {
			s += fmt.Sprintf("-drop%d", f.DropP2PEvery)
		}
	}
	if c.resume > 0 {
		s += fmt.Sprintf("-resume%d", c.resume)
	}
	return s
}

// gradualSchedule fires events at steps 1, 3 and 5 of a 6-batch run,
// ramping 0.3 → 0.8.
func gradualSchedule() *prune.Schedule {
	return &prune.Schedule{Initial: 0.3, Final: 0.8, BeginStep: 1, EndStep: 5, Frequency: 2}
}

// sparseMLPBuilder builds the test MLP with its Linears' weights stored as
// CSRs (Sparsify), so prune events shrink CSR patterns in place.
func sparseMLPBuilder(seed uint64, sparsity float64) Builder {
	return func() *nn.Model {
		m := mlpBuilder(seed)()
		return nn.Sparsify(m, pruneModel(m, sparsity))
	}
}

func identities() []*identity {
	// The costliest identities come first, so that their cells start first.
	ids := []*identity{
		dp2Identity(),
		{name: "mlp-d1m8", build: mlpBuilder(7), batches: makeBatches(6, 8, 100),
			gdata: 1, mb: 8, ginters: 5, want: 0x9c6d90c53e3e5905},
		{name: "mlp-d1m8-gradual", build: mlpBuilder(7), pr: pruneMLP(7, 0.3), sched: gradualSchedule(),
			batches: makeBatches(6, 8, 100), gdata: 1, mb: 8, want: 0xa34b2c708219bbd7},
		{name: "mlp-d1m2", build: mlpBuilder(13), pr: pruneMLP(13, 0.7), batches: makeBatches(6, 8, 400),
			gdata: 1, mb: 2, want: 0x577968038100b592},
		{name: "mlp-d1m2-gradual", build: mlpBuilder(13), pr: pruneMLP(13, 0.3), sched: gradualSchedule(),
			batches: makeBatches(6, 8, 400), gdata: 1, mb: 2, want: 0x6c9a041f8323370a},
		{name: "mlp-d2m4", build: mlpBuilder(23), batches: makeBatches(6, 8, 700),
			gdata: 2, mb: 4, want: 0x901ebc58c7ff7671},
		{name: "mlp-d2m4-gradual", build: mlpBuilder(23), pr: pruneMLP(23, 0.3), sched: gradualSchedule(),
			batches: makeBatches(6, 8, 700), gdata: 2, mb: 4, want: 0x421e55e61f22d970},
		{name: "mlp-d2m2", build: mlpBuilder(21), batches: makeBatches(6, 8, 1800),
			gdata: 2, mb: 2, want: 0xce690d901c235887},
		{name: "mlp-d2m2-gradual", build: mlpBuilder(69), pr: pruneMLP(69, 0.3), sched: gradualSchedule(),
			batches: makeBatches(6, 8, 7400), gdata: 2, mb: 2, chaos: true, want: 0x2f83f66ee2583c8f},
		// A 1e30 loss scale overflows fp16: both steps are skipped
		// everywhere, and the checkpoints hold an optimizer that never
		// stepped.
		{name: "mlp-overflow", build: mlpBuilder(37), batches: makeBatches(2, 8, 800),
			gdata: 2, mb: 2, scale: 1e30, skips: 2, want: 0x8255b70c74295164},
		gdata3Identity(),
		{name: "mlp-csr-gradual", build: sparseMLPBuilder(67, 0.3), pr: pruneMLP(67, 0.3), sched: gradualSchedule(),
			batches: makeBatches(8, 16, 7300), gdata: 2, mb: 1, want: 0xdba57358ed0fa1d0,
			legacy: 0xd21ebfd517aeb748, legacyCell: "g1-samo"},
		gptIdentity(),
	}
	// The worker sweep under a schedule: each prune event slides the ∇θ16
	// segments left inside the slab a stage reduces. 48 samples divide by
	// every Gdata.
	for _, s := range []struct {
		gdata        int
		want, legacy uint64
	}{
		{1, 0x08a0f29eae840dcb, 0xa346dae285d88b68},
		{2, 0x6785de274289f3ff, 0x3cc1eae477a3b2a9},
		{3, 0x70686aa64672bf59, 0xa49b1371a15a89bf},
		{4, 0x4c6ecc726b8a630e, 0xe80ba6c4f9cd42fd},
		{8, 0x94842d5616798319, 0xc0105824d388a0dc},
		{16, 0x8bf386a3baa14d29, 0xbaa07a2c4ecf58f6},
	} {
		ids = append(ids, &identity{name: fmt.Sprintf("sweep-d%d", s.gdata),
			build: mlpBuilder(61), pr: pruneMLP(61, 0.3), sched: gradualSchedule(),
			batches: makeBatches(6, 48, uint64(7000+s.gdata)), gdata: s.gdata, mb: 1, ginters: 1,
			want: s.want, legacy: s.legacy, legacyCell: "g1-samo"})
	}
	return ids
}

// gdata3Identity pins the reduced sums to the data, not to how the payload
// is cut: group g's input rows are scaled by 2^(10(g−1)), so the three
// fp16-grid gradients of one element lie up to 2^20 apart and their float32
// sum rounds — a reduce whose summation order followed chunk boundaries
// would move the last bits. The low initial loss scale only saves the
// overflow-skipped warm-up steps.
func gdata3Identity() *identity {
	const gdata = 3
	batches := makeBatches(4, 48, 2050)
	for _, b := range batches {
		x := b.Input.Data()
		shard := len(x) / gdata
		for g := 0; g < gdata; g++ {
			for i := range x[g*shard : (g+1)*shard] {
				x[g*shard+i] *= float32(math.Ldexp(1, 10*(g-1)))
			}
		}
	}
	return &identity{name: "mlp-gdata3", build: mlpBuilder(31), batches: batches,
		gdata: gdata, mb: 1, scale: 1024, skips: 1, want: 0x9a09890b610d6eeb,
		legacy: 0xea8cac436e66cd27, legacyCell: "g1-dense-tcp"}
}

// dp2Identity has the mlp_dp2_tcp_dense benchmark's shape (256-768-768-768-32,
// microbatch 4, Gdata 2): its 1 403 168-element slab goes through the half
// exchange's vector kernels in one call, and its GEMMs and state sweeps are
// large enough to split across kernel workers.
func dp2Identity() *identity {
	batches := randomBatches(4, 8, 256, 32, 46)
	build := func() *nn.Model { return nn.BuildMLP("mlp", []int{256, 768, 768, 768, 32}, tensor.NewRNG(7)) }
	return &identity{name: "mlp-dp2", build: build, batches: batches, gdata: 2, mb: 4, ginters: 1, skips: 2,
		want: 0x5fd79de645b99715, legacy: 0x0db326749ea440f7, legacyCell: "g1-dense-tcp"}
}

// gptIdentity runs a tiny transformer under a gradual schedule: embedding,
// attention, blocks and LM head across every stage boundary.
func gptIdentity() *identity {
	cfg := nn.GPTConfig{Name: "tiny", Layers: 2, Hidden: 16, Heads: 2, Seq: 4, Vocab: 11}
	build := func() *nn.Model { return nn.BuildGPT(cfg, tensor.NewRNG(31)) }
	rng := tensor.NewRNG(32)
	const samples = 4
	batches := make([]Batch, 6)
	for i := range batches {
		tokens := make([]int, samples*cfg.Seq)
		targets := make([]int, samples*cfg.Seq)
		for j := range tokens {
			tokens[j] = int(rng.Uint64() % uint64(cfg.Vocab))
			targets[j] = int(rng.Uint64() % uint64(cfg.Vocab))
		}
		batches[i] = Batch{Input: nn.TokensToTensor(tokens), Targets: targets, SampleRows: cfg.Seq, Samples: samples}
	}
	return &identity{name: "gpt-gradual", build: build, pr: pruneModel(build(), 0.3), sched: gradualSchedule(),
		batches: batches, gdata: 2, mb: 1, ginters: 4, skips: 3, want: 0x28e2aae1c9fce81c}
}

// cells generates the identity's invariant points. Every layout and storage
// mode runs plainly — over TCP in one mode per layout where the ranks fit in
// four processes, in-process otherwise — and as an in-process twin that
// sets a kernel worker count (1 and 2 in turn), the ignored OverlapReduce
// field and nn.WithRecompute at once. A chaos identity adds crash, drop,
// replay and resume cells.
func (id *identity) cells() []cell {
	modes := []core.Mode{core.Dense}
	if id.pr != nil {
		modes = append(modes, core.SAMO)
	}
	var cs []cell
	if id.gdata == 1 && id.mb == id.batches[0].Samples {
		for _, m := range modes {
			cs = append(cs, cell{mode: m})
		}
	}
	ginters := id.ginters
	if ginters == 0 {
		ginters = 3
	}
	for g := 1; g <= ginters; g++ {
		for i, m := range modes {
			tcp := i == (g+1)%len(modes) && g*id.gdata <= 4
			cs = append(cs, cell{ginter: g, mode: m, tcp: tcp},
				cell{ginter: g, mode: m, workers: 2 - (g+i)%2, overlap: true, recompute: true})
		}
	}
	if !id.chaos {
		return cs
	}
	// Crash a rank at every step, and inside every collective of every
	// batch, rotating the layout, the storage mode and the rank. The last
	// stage of data group 0 enters three collectives per batch: the
	// gradient reduce, the overflow flag and the loss average.
	n := len(id.batches)
	for k := 0; k < n; k++ {
		g, m := k%3+1, modes[k%len(modes)]
		rank := k % (g * id.gdata)
		cs = append(cs, cell{ginter: g, mode: m, ckpt: true,
			fault: &comm.FaultPlan{CrashAtStep: map[int]int{rank: k}}})
	}
	for op := 0; op < 3*n; op++ {
		g, m := (op/3+op)%3+1, modes[op%len(modes)]
		cs = append(cs, cell{ginter: g, mode: m, ckpt: true,
			fault: &comm.FaultPlan{CrashAtOp: map[int]int{g - 1: op}}})
	}
	cs = append(cs,
		// A dropped activation leaves its receiver blocked with no failed
		// rank: only the deadline detects it.
		cell{ginter: 2, mode: modes[len(modes)-1], ckpt: true,
			fault: &comm.FaultPlan{DropP2PEvery: 7}, deadline: 2 * time.Second},
		// Without a checkpoint, recovery replays the whole run.
		cell{ginter: 2, mode: modes[0], fault: &comm.FaultPlan{CrashAtStep: map[int]int{3: 2}}})
	// Resume from the checkpoint before the event at batch 3 (replaying it),
	// from the one after it, and from the last one (a no-op).
	for _, stop := range []int{3, 4, n} {
		cs = append(cs, cell{ginter: 2, mode: modes[stop%len(modes)], ckpt: true, resume: stop})
	}
	return cs
}

// train runs one cell.
func (id *identity) train(t *testing.T, c cell) Result {
	if c.ginter == 0 {
		return serialTrain(id, c.mode)
	}
	cfg := Config{Ginter: c.ginter, Gdata: id.gdata, Microbatch: id.mb, Mode: c.mode,
		OverlapReduce: c.overlap, PruneSchedule: id.sched, InitialLossScale: id.scale,
		Fault: c.fault, CollectiveDeadline: c.deadline}
	build := id.build
	if c.recompute {
		build = func() *nn.Model { return nn.WithRecompute(id.build()) }
	}
	if c.ckpt {
		cfg.CheckpointDir = t.TempDir()
	}
	switch {
	case c.tcp:
		cfg.CollectiveDeadline = 15 * time.Second
		return trainTCP(t, cfg, build, id.pr, id.batches)
	case c.resume > 0:
		a := Train(cfg, build, adamBuilder(), id.pr, id.batches[:c.resume])
		if a.Err != nil {
			t.Fatalf("run before the resume: %v", a.Err)
		}
		cfg.Resume = true
		b := Train(cfg, build, adamBuilder(), id.pr, id.batches)
		if b.StartBatch != c.resume {
			t.Errorf("resumed at batch %d, want %d", b.StartBatch, c.resume)
		}
		copy(b.Losses, a.Losses)
		return b
	}
	return Train(cfg, build, adamBuilder(), id.pr, id.batches)
}

// serialTrain trains the identity on one core.Trainer, pruning on schedule
// after each step as the engine does, and returns the run as one stage.
func serialTrain(id *identity, mode core.Mode) Result {
	ms := core.NewModelState(id.build(), optim.NewAdam(0.01), mode, id.pr)
	if id.scale > 0 {
		ms.Scaler.Scale = id.scale
	}
	var gp *core.GradualPruner
	if id.sched != nil {
		gp, _ = core.NewGradualPruner(ms, *id.sched) // a valid schedule
	}
	tr := core.NewTrainer(ms)
	var r Result
	for i, b := range id.batches {
		l, _ := tr.TrainStep(b.Input, b.Targets)
		r.Losses = append(r.Losses, l)
		if gp != nil {
			gp.MaybePrune(i)
		}
	}
	r.SkippedSteps = ms.SkippedSteps()
	var buf bytes.Buffer
	if _, err := ms.Save(&buf); err != nil {
		r.Err = err
	}
	r.StageStates = [][]byte{buf.Bytes()}
	return r
}

// trainTCP runs cfg over TCP loopback with one process per rank, each
// process a goroutine, and merges the processes' results into the one a
// single process would return: losses and skips from the loss writer (data
// group 0's last stage), each stage's state from its group-0 rank.
func trainTCP(t *testing.T, cfg Config, build Builder, pr *prune.Result, batches []Batch) Result {
	t.Helper()
	n := cfg.GPUs()
	addrs := freeLoopbackAddrs(t, n)
	procs := make([]Result, n)
	var wg sync.WaitGroup
	for p := range procs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := cfg
			c.Net = &NetConfig{Peers: addrs, Proc: p, DialTimeout: 30 * time.Second}
			procs[p] = Train(c, build, adamBuilder(), pr, batches)
		}(p)
	}
	wg.Wait()
	merged := procs[lastStageRank(cfg, 0)]
	merged.StageStates = make([][]byte, cfg.Ginter)
	for p, r := range procs {
		if r.Fabric != nil {
			r.Fabric.Close()
		}
		if r.Err != nil && merged.Err == nil {
			merged.Err = fmt.Errorf("proc %d: %w", p, r.Err)
		}
		if p < cfg.Ginter && r.Err == nil {
			merged.StageStates[p] = r.StageStates[p]
		}
	}
	return merged
}

// stateHash hashes a run's losses and every stage's saved state: the form
// of the earlier hand-written pins, which depend on the layout.
func stateHash(r Result) uint64 {
	h := lossHash(r)
	for _, s := range r.StageStates {
		h.Write(s)
	}
	return h.Sum64()
}

func lossHash(r Result) hash.Hash64 {
	h := fnv.New64a()
	for _, l := range r.Losses {
		binary.Write(h, binary.LittleEndian, math.Float64bits(l))
	}
	return h
}

// fingerprint hashes what a run computed whatever its layout: every loss's
// bits, the skip count, and every parameter's final θ16, read back by
// loading each stage's state into a forward-only state over that stage's
// layers.
func (id *identity) fingerprint(c cell, r Result) (uint64, error) {
	h := lossHash(r)
	binary.Write(h, binary.LittleEndian, int64(r.SkippedSteps))
	full := id.build()
	g := max(c.ginter, 1)
	for s := 0; s < g; s++ {
		lo, hi := partition(len(full.Layers), g, s)
		st := core.NewInferenceState(&nn.Model{Layers: full.Layers[lo:hi]}, optim.NewAdam(0.01), c.mode, id.pr)
		if err := st.Load(r.StageStates[s]); err != nil {
			return 0, fmt.Errorf("stage %d: %w", s, err)
		}
	}
	for _, p := range full.Params() {
		binary.Write(h, binary.LittleEndian, p.Value.Data())
	}
	return h.Sum64(), nil
}

// matrixRun is one cell's outcome; ok is false when the cell failed on its
// own account.
type matrixRun struct {
	Result
	fp uint64
	ok bool
}

// workersMu serializes the cells that set the process-wide kernel worker
// count. Other cells run beside them at whatever count is set, which by the
// contract moves no bit.
var workersMu sync.Mutex

func TestEngineBitsMatrix(t *testing.T) {
	for _, id := range identities() {
		t.Run(id.name, func(t *testing.T) {
			t.Parallel()
			cells := id.cells()
			if id.legacyCell != "" && !slices.ContainsFunc(cells, func(c cell) bool { return c.String() == id.legacyCell }) {
				t.Fatalf("%s: no cell %s carries the legacy pin", id.name, id.legacyCell)
			}
			id.run(t, cells)
		})
	}
}

// run runs cells of the identity as parallel subtests and checks them
// together once all have run.
func (id *identity) run(t *testing.T, cells []cell) {
	runs := make([]matrixRun, len(cells))
	t.Cleanup(func() { id.check(t, cells, runs) })
	for i, c := range cells {
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			if c.workers > 0 {
				workersMu.Lock()
				defer workersMu.Unlock()
				defer tensor.SetWorkers(tensor.SetWorkers(c.workers))
			}
			r := id.train(t, c)
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			switch {
			case c.fault == nil:
				if r.Restarts != 0 {
					t.Errorf("%d restarts without a fault (%v)", r.Restarts, r.Warnings)
				}
			case c.fault.DropP2PEvery > 0:
				if r.Restarts == 0 {
					t.Error("the drop did not trigger a recovery")
				}
			case r.Restarts != 1 || len(r.Warnings) == 0:
				t.Errorf("%d restarts, warnings %v; want one and its warning", r.Restarts, r.Warnings)
			}
			if r.SkippedSteps != id.skips {
				t.Errorf("%d skipped steps, want %d", r.SkippedSteps, id.skips)
			}
			fp, err := id.fingerprint(c, r)
			if err != nil {
				t.Fatalf("reading the state back: %v", err)
			}
			runs[i] = matrixRun{Result: r, fp: fp, ok: true}
		})
	}
}

// check compares the identity's cells in table order once all have run: the
// fingerprint of each against the constant, the legacy pin on its cell, and
// the saved state bytes of cells that share a layout and a storage mode.
func (id *identity) check(t *testing.T, cells []cell, runs []matrixRun) {
	var diverged []string
	first := map[string]int{}
	for i, c := range cells {
		r := runs[i]
		if !r.ok {
			continue
		}
		if r.fp != id.want {
			diverged = append(diverged, fmt.Sprintf("%v (%#016x)", c, r.fp))
		}
		if c.String() == id.legacyCell {
			if h := stateHash(r.Result); h != id.legacy {
				t.Errorf("%s: cell %v state and loss hash %#016x, want %#016x", id.name, c, h, id.legacy)
			}
		}
		j, seen := first[c.layout()]
		if !seen {
			first[c.layout()] = i
			continue
		}
		for s := range r.StageStates {
			if !bytes.Equal(r.StageStates[s], runs[j].StageStates[s]) {
				t.Errorf("%s: cell %v saves stage %d unlike cell %v", id.name, c, s, cells[j])
				break
			}
		}
	}
	if len(diverged) > 0 {
		t.Errorf("%s: fingerprint want %#016x; first diverging cell %s, %d of %d cells diverge",
			id.name, id.want, diverged[0], len(diverged), len(cells))
	}
}

// The named tests below are the determinism contracts the matrix grew from,
// each kept under its own name as a few cells of one identity, run and
// checked as the matrix runs and checks its own: a fault, resume, transport
// or OverlapReduce cell beside the plain cell of its layout, so that losses,
// skips, θ16 and the saved state bytes must all agree with it.

// view runs cells of the identity called name.
func view(t *testing.T, name string, cells ...cell) {
	t.Helper()
	for _, id := range identities() {
		if id.name == name {
			id.run(t, cells)
			return
		}
	}
	t.Fatalf("no identity %s", name)
}

func crashAtStep(name string, ginter int, mode core.Mode, rank, step int) cell {
	return cell{name: name, ginter: ginter, mode: mode, ckpt: true,
		fault: &comm.FaultPlan{CrashAtStep: map[int]int{rank: step}}}
}

// crashAtOp crashes the last stage of data group 0, which enters three
// collectives per batch: the gradient reduce, the overflow flag and the
// loss average.
func crashAtOp(name string, ginter int, mode core.Mode, op int) cell {
	return cell{name: name, ginter: ginter, mode: mode, ckpt: true,
		fault: &comm.FaultPlan{CrashAtOp: map[int]int{ginter - 1: op}}}
}

func TestTrainSurvivesRankCrash(t *testing.T) {
	view(t, "mlp-d2m2", cell{ginter: 2}, crashAtStep("", 2, core.Dense, 2, 3))
}

// TestCrashAtEveryStepBitwiseGolden crashes one rank at every step, the
// rank rotating over every pipeline and data position.
func TestCrashAtEveryStepBitwiseGolden(t *testing.T) {
	cells := []cell{{ginter: 2}}
	for k := range 6 {
		cells = append(cells, crashAtStep(fmt.Sprintf("crash-step-%d", k), 2, core.Dense, k%4, k))
	}
	view(t, "mlp-d2m2", cells...)
}

// TestCrashMidBatchCollective crashes inside a batch, between a stage
// group's reduce and the global consensus, where partial gradient state
// exists; op 14 is the fifth batch's loss average.
func TestCrashMidBatchCollective(t *testing.T) {
	cells := []cell{{ginter: 2}}
	for _, op := range []int{0, 3, 10, 14} {
		cells = append(cells, crashAtOp(fmt.Sprintf("crash-op-%d", op), 2, core.Dense, op))
	}
	view(t, "mlp-d2m2", cells...)
}

// TestCrashMidGradientReduce crashes inside the gradient reduce of each of
// the first five batches of a SAMO run under a schedule, while the stage
// peer waits on the same reduce.
func TestCrashMidGradientReduce(t *testing.T) {
	cells := []cell{{ginter: 2, mode: core.SAMO}}
	for _, op := range []int{0, 3, 6, 9, 12} {
		cells = append(cells, crashAtOp(fmt.Sprintf("crash-op-%d", op), 2, core.SAMO, op))
	}
	view(t, "mlp-d2m2-gradual", cells...)
}

// TestCrashAtPruneEventRecoversBitwise crashes on the prune-event batch 3
// (recovering from the checkpoint before its shrink), on batch 4 (from the
// one after it) and on the last event, batch 5.
func TestCrashAtPruneEventRecoversBitwise(t *testing.T) {
	cells := []cell{{ginter: 2, mode: core.SAMO}}
	for _, step := range []int{3, 4, 5} {
		cells = append(cells, crashAtStep(fmt.Sprintf("crash-step-%d", step), 2, core.SAMO, step%4, step))
	}
	view(t, "mlp-d2m2-gradual", cells...)
}

func TestRecoveredRunKeepsSAMOCompression(t *testing.T) {
	view(t, "mlp-d2m2-gradual", cell{ginter: 2, mode: core.SAMO}, crashAtStep("", 2, core.SAMO, 0, 2))
}

// TestResumeAcrossProcesses resumes a run stopped after three batches, and
// resumes a fully trained one, a no-op.
func TestResumeAcrossProcesses(t *testing.T) {
	view(t, "mlp-d2m2", cell{ginter: 2},
		cell{ginter: 2, ckpt: true, resume: 3}, cell{ginter: 2, ckpt: true, resume: 6})
}

// TestResumeFromAllOverflowCheckpoint resumes from the checkpoint of a
// one-batch run whose only step overflowed, written before the optimizer
// held any state.
func TestResumeFromAllOverflowCheckpoint(t *testing.T) {
	view(t, "mlp-overflow", cell{ginter: 2}, cell{ginter: 2, ckpt: true, resume: 1})
}

// TestGradualPruneResumeFromPreAndPostShrinkCheckpoints resumes from the
// checkpoint before the event at batch 3, replaying it, and from the one
// after it, which shrinks the rebuilt state on load.
func TestGradualPruneResumeFromPreAndPostShrinkCheckpoints(t *testing.T) {
	cells := []cell{{ginter: 2, mode: core.SAMO}}
	for _, stop := range []int{3, 4} {
		cells = append(cells, cell{name: fmt.Sprintf("resume-from-%d", stop), ginter: 2, mode: core.SAMO,
			ckpt: true, resume: stop})
	}
	view(t, "mlp-d2m2-gradual", cells...)
}

func TestPipelineMatchesSerialBitwise(t *testing.T) {
	view(t, "mlp-d1m8", cell{}, cell{ginter: 2}, cell{ginter: 3})
}

func TestSingleRankDegenerateConfigMatchesSerial(t *testing.T) {
	view(t, "mlp-d1m8", cell{}, cell{ginter: 1})
}

// TestSAMOMatchesDenseInParallel is the paper's correctness claim under
// hybrid parallelism: SAMO storage changes no bit of the arithmetic.
func TestSAMOMatchesDenseInParallel(t *testing.T) {
	view(t, "mlp-d2m2-gradual", cell{ginter: 2}, cell{ginter: 2, mode: core.SAMO})
}

// The ignored OverlapReduce field moves no bit, at each Gdata of the sweep,
// unpruned and under a schedule (where the sweep's legacy hashes hold), over
// TCP, and under hybrid parallelism in both storage modes.

func TestOverlapReduceBitwiseWorkerSweep(t *testing.T) {
	for _, gdata := range []int{1, 2, 3, 4, 8, 16} {
		t.Run(fmt.Sprintf("gdata%d", gdata), func(t *testing.T) {
			t.Parallel()
			view(t, fmt.Sprintf("sweep-d%d", gdata), cell{ginter: 1}, cell{ginter: 1, overlap: true})
		})
	}
}

func TestGradualPruneOverlapBitwiseWorkerSweep(t *testing.T) {
	for _, gdata := range []int{1, 2, 3, 4, 8, 16} {
		t.Run(fmt.Sprintf("gdata%d", gdata), func(t *testing.T) {
			t.Parallel()
			view(t, fmt.Sprintf("sweep-d%d", gdata),
				cell{ginter: 1, mode: core.SAMO}, cell{ginter: 1, mode: core.SAMO, overlap: true})
		})
	}
}

func TestOverlapReduceOverTCPBitwise(t *testing.T) {
	for _, gdata := range []int{2, 4} {
		t.Run(fmt.Sprintf("gdata%d", gdata), func(t *testing.T) {
			view(t, fmt.Sprintf("sweep-d%d", gdata), cell{ginter: 1}, cell{ginter: 1, overlap: true, tcp: true})
		})
	}
}

func TestGradualPruneOverTCPBitwise(t *testing.T) {
	for _, gdata := range []int{2, 4} {
		t.Run(fmt.Sprintf("gdata%d", gdata), func(t *testing.T) {
			view(t, fmt.Sprintf("sweep-d%d", gdata),
				cell{ginter: 1, mode: core.SAMO}, cell{ginter: 1, mode: core.SAMO, tcp: true})
		})
	}
}

func TestOverlapReduceBitwiseHybridSAMO(t *testing.T) {
	for _, mode := range []core.Mode{core.Dense, core.SAMO} {
		t.Run(fmt.Sprintf("mode=%v", mode), func(t *testing.T) {
			view(t, "mlp-d2m2-gradual", cell{ginter: 2, mode: mode}, cell{ginter: 2, mode: mode, overlap: true})
		})
	}
}

// Package samo is the public API of the SAMO reproduction — Sparsity-aware
// Memory Optimization for large-model training (Singh & Bhatele, IPDPS 2023).
//
// The workflow mirrors the paper:
//
//  1. Build a model (package nn via the re-exported builders, or any stack
//     of nn.Layer values).
//  2. Prune it by per-layer magnitude (PruneMagnitude), obtaining per-layer
//     index sets of surviving parameters. The Figure 4 experiment draws its
//     ticket with the Early-Bird algorithm the paper uses (internal/prune).
//  3. Create a State in ModeSAMO: θ16 stays dense for fast kernels, every
//     other model-state tensor is stored compressed on a shared linearized
//     index.
//  4. Train — serially with Trainer, or with the hybrid data + inter-layer
//     parallel engine (Train), which also compresses the data-parallel
//     gradient all-reduce.
//
// The companion Summit performance simulator (internal/simulate over the
// paper's calibrated hardware model) answers "what would this buy me at N
// GPUs": cmd/samo-experiments prints the paper's figures and tables from
// it, and its memory experiment the Ginter×Gdata each model's state needs.
// MemorySavingsPercent gives the §III-D closed-form saving.
//
// # Compute substrate
//
// Every CPU kernel — the blocked GEMM micro-kernels behind MatMul and its
// transposed variants, and the sparse compress/expand and SpMM/SDDMM
// paths — executes on one persistent, process-wide worker pool
// (internal/parallel) rather than spawning goroutines per call.
// tensor.SetWorkers bounds the per-call fan-out atomically and is safe to
// call mid-run; the pool itself is sized at GOMAXPROCS once.
//
// The dense GEMM family — the kernels the paper's dense-compute argument
// rests on — runs a unified BLIS-style shared-pack pipeline: each kc×nc
// panel of B is packed once per call by the workers cooperatively, then
// swept by all of them, instead of once per worker (which duplicated
// memory traffic exactly when rows-per-worker was small, the FC backward
// regime). All three family members dispatch through it — the forward
// product and the transposed backward products MatMulT (C = A·Bᵀ, input
// gradient) and TMatMul (C = Aᵀ·B, weight gradient) — sharing the sweep
// kernels and differing only in packing: MatMulT transpose-packs B
// panels, TMatMul transpose-packs A blocks. The blocking is a rule,
// described under "GEMM blocking" below. On amd64 hosts with AVX2 the strip
// sweep runs a four-row vector micro-kernel, and on hosts with AVX-512F a
// 16-lane twin of it over every whole 16-column strip, both selected once at
// start-up from CPUID (see GEMMKernel); they execute the Go kernel's float32
// operations lane for lane, unfused, so results do not depend on the host
// either. Attention's per-head products (scores against the keys, the
// probability-weighted sum of values and the backward's rank-1 updates) run
// tensor's AVX2 row kernels under the same rule.
//
// # Sparse execution
//
// Pruned fully connected layers can exploit their sparsity during
// training, not just in storage: Sparsify stores the weight of every pruned
// Linear as a CSR of that same (in, out) matrix (nn.Param.CSR), its
// nonzeros in ascending id order — the order of SAMO's index over the
// weight, and so of θ32, ∇θ16, the optimizer states, the reduce slab and
// the checkpoint's pattern ids. The forward pass walks the CSR's rows in
// place (yᵀ[c] += W[j,c]·xᵀ[j] in ascending j, the chain a stored transpose
// would sum, with no transpose stored), the input gradient is a
// transposed-CSR SpMM (dx = dy·Wᵀ, one chain over each weight row), and the
// weight gradient is SDDMM sampled at the surviving pattern — gradient
// entries for pruned weights are never materialized, so the whole model
// state (capture, all-reduce, optimizer, and under sparse execution θ16
// itself) is sized fφ. Every sparse kernel gives each output element a
// single owning worker and a fixed accumulation order, so results are
// bitwise-identical at every worker count, matching the GEMM
// contract (pinned by determinism goldens and the FuzzSpMMTInto/
// FuzzSDDMMInto targets).
//
// On amd64 hosts with AVX2 (the same start-up probe as the GEMM kernel) the
// CSR kernels run vector lanes where no sparsity structure is needed: the
// input-gradient SpMM holds one weight row's outputs for 48 batch rows in
// YMM accumulators and reads dyᵀ feature-major, the forward holds one
// weight row's xᵀ segment in registers and adds it into the yᵀ rows its
// nonzeros name, one L1-sized block of features at a time, and SDDMM runs
// sixteen of a row's nonzeros as gathered side-by-side chains — or, on a
// pattern at least a quarter dense, forms two rows' dots against a
// 32-column window of the batch-major output gradient with contiguous
// loads. Each
// lane is one output executing the Go kernel's float32 sequence, unfused,
// so the bits do not depend on the host or on which kernel ran.
//
// The paper's Figure 1 argument — sparse compute loses to dense at deep
// learning's sparsities, so SAMO compresses storage but computes dense —
// does not hold for this repository's CPU kernels: at batch 48 a CSR
// training step beats a masked-dense one on wide layers from 10% sparsity
// (the grid in nn.Sparsify's doc). A sparsified layer runs its CSR kernels
// at every density, one path with one set of bits; a pruned layer meant to
// compute densely keeps no CSR and runs under a masked state (Dense or SAMO
// mode), the paper's masked-dense path.
// sparse.TestSpMMFloor holds the CSR forward (TSpMMInto) 1.5× over the
// masked-dense GEMM at the ≥90%-sparsity points of the BenchmarkSpMM matrix.
//
// # GEMM blocking
//
// Every GEMM runs one strip kernel (four C rows × eight columns in
// registers, AVX2 where the host has it; four rows × sixteen columns in ZMM
// registers over whole 16-column strips where it has AVX-512F). A forward
// product of at most 128 rows sweeps the row-major weight in place, kc 256
// rows of B at a time; every other GEMM first packs kc 256 × nc 128 panels
// in strips, 16 wide on AVX-512 hosts and 8 wide elsewhere —
// a pack pays only once enough 4-row tiles sweep it, and up to 128 rows
// the in-place sweep is 0.1–1.0× the packed one's time. No copy of a
// weight is kept in any kernel layout, so serving and training hold
// exactly the model state the memory ledger counts. The transposed
// products always pack: their effective B is not row-major. Both paths sum
// k in the same pairwise order, so the line moves time, never bits.
// Nothing is probed, timed or persisted, and no compute package reads the
// clock or the environment (a test in reach_test.go guards that).
//
// # Serving
//
// The training stack has a forward-only twin for inference. Every layer's
// eval forward is contractually cache-free, and Model.Infer /
// Model.InferWindowed run it against arenas sized to the forward working
// set — the windowed runner ping-pongs activations between two arenas so
// peak residency is one layer's input plus its output, at 0 allocs/op in
// steady state. core.InferenceState is the state-side counterpart: it holds
// fp16-grid resident weights only — no gradients, no master θ32 copies, no
// optimizer moments, no reduce buffers — so its Memory() ledger is the 2φ
// θ16 line alone, while sharing ModelState's fingerprint, so a training
// checkpoint loads straight into inference mode through internal/ckpt with
// tag, fingerprint and CRC verification (and its Load is transactional like
// ModelState's). core.Inferencer owns the two arenas for a single-goroutine
// serving loop.
//
// cmd/samo-serve puts it behind dynamic micro-batching (internal/serve):
// the batching loop takes whatever concurrent single-sample requests are
// queued — it never waits for more — and pads them to the next power of
// two, a bounded admission queue converts overload into immediate
// backpressure (ErrOverloaded), a forward that panics on a request fails
// that batch with a typed error instead of the process, and Close drains
// gracefully. The engine's determinism contract rests on the forward
// kernels being row-invariant (an output row's bits depend on its input row
// and the weights, never on the batch height, worker count or GEMM
// blocking): a response equals the
// offline forward of its sample alone, bit for bit, whatever bucket it
// rode in. serve.TestServeP99Floor holds the p99 round trip of 400
// requests from 12 clients on samo-serve's default GPT under 25 ms.
//
// # Fault tolerance
//
// The parallel engine treats rank failure as a tested scenario, not an
// exception. The communication fabric carries a poison/abort model: when a
// rank fails (an injected comm.FaultPlan in tests, an engine-detected error,
// or the configurable collective deadline tripping on a stalled peer), the
// fabric is poisoned once and every blocking primitive unwinds promptly
// with a typed comm.RankFailedError or comm.DeadlineError instead of
// deadlocking.
// Fault injection is deterministic — crash points are keyed to engine
// steps and per-rank collective entry counts, message drop/delay schedules
// to fixed counters — so every failure scenario replays identically.
//
// Checkpointing is crash-consistent (internal/ckpt): each pipeline stage's
// model state is saved through temp-file+fsync+rename with a JSON manifest
// carrying the step, a structural fingerprint and the data CRC, verified
// by read-back; a step is durable only when every stage's shard verifies,
// and a corrupt latest checkpoint falls back to the previous one with a
// surfaced warning. On a fabric abort, Train tears the fabric down
// (draining its pooled buffers), rebuilds ranks, reloads the newest
// durable checkpoint and replays the remaining batches — the recovered
// run's losses and θ32 are bitwise-identical to an uninterrupted run.
// internal/axonn's TestEngineBitsMatrix pins the split: seed, Gdata,
// Microbatch, prune schedule and loss scale define a run's bits; Ginter and
// the stage split, transport, kernel workers, storage mode and the crash or
// resume point do not. ParallelConfig wires it up: CheckpointDir/Every/Keep,
// Resume, CollectiveDeadline, MaxRestarts and the test-only Fault plan.
//
// # Transport
//
// The fabric is split from the wire: Fabric owns the failure domain and the
// collectives, an all-reduce that returns the serial rank-ordered sum
// (reduce-scatter to chunk owners, all-gather of their sums) and its twin
// for the fp16 gradient, which at 2 or 3 ranks exchanges the payload as
// half bits, 2 bytes per element as in the paper's §IV-A, and folds the
// same sum on every rank; a pluggable Transport moves the bytes. The default is the in-process
// channel mesh (goroutine ranks, pooled chunk buffers); the TCP
// transport (internal/comm/tcp) runs the same fabric across OS
// processes, each hosting a contiguous block of ranks. Frames are
// length-prefixed with a one-byte kind (p2p data, collective chunk, poison),
// payloads cross the wire as 32-bit words, bit-preserved (float32 values, or
// two half bits to a word), written from the sender's memory and
// read straight into the receiver's pooled chunk buffer once the frame's
// header has passed its checks, so steady-state collectives are
// allocation-free on the wire too.
// Connection errors map onto the same poison path as local failures — a dead
// peer surfaces as comm.RankFailedError, a stalled socket trips the
// CollectiveDeadline backstop as comm.DeadlineError — so a killed peer
// process is just another recoverable abort: the survivor rebuilds the mesh
// (waiting up to the dial timeout for the peer to be restarted) and resumes
// from the newest durable checkpoint. A conformance suite pins collectives,
// and the matrix whole runs, bitwise-identical across transports, so a
// multi-process run reproduces the single-process run exactly. Select it
// with ParallelConfig.Net (NetConfig{Peers, Proc, DialTimeout}) or
// samo-train's -transport tcp -peers host:port,host:port -proc N flags.
//
// # Data-parallel reduce
//
// Every parameter's ∇θ16 is a segment of one contiguous slab per stage, in
// state order (core.ModelState.ReduceBuffer), so gradient capture writes
// straight into the reduce payload. After the shard's last backward each
// stage all-reduces that slab in one AllReduceHalf call — at two bytes per
// element for groups of 2 or 3 — and then the overflow flag. Each reduce
// returns the serial data-group-ordered sum, so the bits are a function of
// the data alone. The reduce does not overlap backward: on the
// benchmark's hybrid and dp2 workloads a bucketed, overlapped reduce
// measured no faster. ParallelConfig.OverlapReduce is accepted and ignored.
// Every collective's wall time counts as exposed, per rank, in the fabric's
// stats and samo-train's final report.
//
// # Pruning schedules
//
// Besides one-shot pruning before training, the sparsity can be reached
// GRADUALLY during training with Zhu & Gupta's cubic schedule
// (PruneSchedule): starting from an initial sparsity, prune events every
// Frequency steps between BeginStep and EndStep remove the
// smallest-magnitude surviving weights — per layer or by global ranking —
// until the final sparsity is reached, letting the network adapt between
// events. The defining property of the implementation is that every event
// shrinks the existing storage IN PLACE: CSR patterns, the compressed θ32
// vectors, optimizer moments and the ∇θ16 all-reduce slab all compact
// leftward inside their original backing arrays, so NNZ only ever
// decreases, memory and communication volume ratchet down with the
// schedule, and training between events stays allocation-free. Selection
// reads the θ32 master weights after the global overflow consensus, where
// every data-parallel replica is bitwise-identical — so all replicas (and the
// masked-dense reference mode) shrink to the exact same pattern with no extra
// communication, at any worker count, on either transport. Every parameter
// has one of four storage shapes — dense, masked-dense, SAMO-compressed or a
// CSR weight's values — and internal/core/shape.go is the one file that
// knows them, so a new weight format touches that file rather than the
// state, pruner and snapshot code.
// Checkpoints carry their pattern: one written after an event loads only
// into states whose pattern it is a subset of (shrinking them on load),
// and crash recovery around a prune event is bitwise-identical to an
// uninterrupted run. Drive it with NewGradualPruner (single-process,
// call MaybePrune after each trainer step) or ParallelConfig.PruneSchedule
// (samo-train's -prune-* flags); examples/quickstart ramps a Sparsify'd
// MLP from 90 to 95% and prints its ledger before and after. The global
// scope ranks the weights of the state its pruner was built over, and each
// pipeline stage builds its own, ranking only the weights it hosts: the
// engine therefore refuses a global schedule at Ginter > 1, where the
// pattern would depend on the stage split.
//
// Steady-state training steps are allocation-free across both model
// families — MLP and GPT (embedding, attention, layer norm, GELU MLP) — as
// are the compress/expand primitives:
// each trainer or simulated rank owns a size-keyed tensor arena that
// supplies activations, gradients and scratch buffers and reclaims them
// wholesale after the optimizer step; layer caches and kernel job
// descriptors recycle through typed pools, and every collective chunk a rank
// receives lands in a pooled buffer (pooled per fabric, in power-of-two
// capacity classes under a hard retention bound).
// tensor.TestGEMMFloor fails if the shared-pack kernels fall below 1.5× the
// seed GEMM, or the 4×4 register-tile MatMulT/TMatMul, on the Figure-1
// shapes; it times the shape list BenchmarkGEMM, BenchmarkMatMulT and
// BenchmarkTMatMul run. bench/run.sh is the end-to-end benchmark
// (BENCHMARK.json).
package samo

import (
	"io"

	"github.com/sparse-dl/samo/internal/axonn"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/experiments"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Re-exported core types. The aliases make the public surface explicit
// while the implementations live in focused internal packages.
type (
	// Tensor is a dense row-major float32 tensor.
	Tensor = tensor.Tensor
	// RNG is the deterministic generator used for initialization and data.
	RNG = tensor.RNG
	// Model is an ordered stack of layers.
	Model = nn.Model
	// PruneResult holds per-layer indices of surviving parameters.
	PruneResult = prune.Result
	// PruneSchedule is a gradual magnitude-pruning schedule (Zhu & Gupta's
	// cubic sparsity ramp) driven during training.
	PruneSchedule = prune.Schedule
	// GradualPruner applies a PruneSchedule to a live State with in-place
	// pattern shrinkage.
	GradualPruner = core.GradualPruner
	// State manages mixed-precision model states, dense or SAMO-compressed.
	State = core.ModelState
	// Trainer drives single-process training through a State.
	Trainer = core.Trainer
	// Mode selects dense or SAMO storage.
	Mode = core.Mode
	// Optimizer is the parameter-update strategy.
	Optimizer = optim.Optimizer
	// Batch is one training batch for the parallel engine.
	Batch = axonn.Batch
	// ParallelConfig describes the Ginter × Gdata hybrid layout.
	ParallelConfig = axonn.Config
	// ParallelResult aggregates a parallel training run.
	ParallelResult = axonn.Result
	// NetConfig selects the TCP transport for multi-process training:
	// Peers lists every process's listen address, Proc is this process's
	// index, and ranks split into contiguous blocks across processes.
	NetConfig = axonn.NetConfig
)

// Storage modes.
const (
	// ModeDense is ordinary mixed-precision training.
	ModeDense = core.Dense
	// ModeSAMO compresses θ32, ∇θ16 and optimizer states to the unpruned
	// coordinates (the paper's contribution).
	ModeSAMO = core.SAMO
)

// NewRNG returns a deterministic generator.
func NewRNG(seed uint64) *RNG { return tensor.NewRNG(seed) }

// GEMMKernel names the dense GEMM micro-kernel this process selected at
// start-up, "avx512", "avx2" or "go". Results are bitwise-identical under
// all three; the cmds print it so step times can be compared knowing what
// produced them.
func GEMMKernel() string { return tensor.GEMMKernel() }

// NewTensor returns a zero-filled tensor with the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// FillNormal fills t with N(0, std²) values from rng.
func FillNormal(t *Tensor, std float64, rng *RNG) { tensor.FillNormal(t, std, rng) }

// --- Model builders ---------------------------------------------------------

// NewMLP builds a multi-layer perceptron with the given layer widths.
func NewMLP(name string, dims []int, rng *RNG) *Model { return nn.BuildMLP(name, dims, rng) }

// NewGPT builds a GPT-style decoder from a config (see GPTConfig).
func NewGPT(cfg GPTConfig, rng *RNG) *Model { return nn.BuildGPT(cfg, rng) }

// GPTConfig describes a GPT-family model.
type GPTConfig = nn.GPTConfig

// --- Pruning ----------------------------------------------------------------

// PruneMagnitude prunes each prunable layer to the target sparsity by
// per-layer magnitude (the uniform pruning the paper's memory model assumes).
func PruneMagnitude(m *Model, sparsity float64) *PruneResult {
	return prune.MagnitudePerLayer(pruneLayers(m), sparsity)
}

// NewGradualPruner binds a gradual magnitude-pruning schedule to a live
// training state (see the package's "Pruning schedules" section). Call
// MaybePrune(step) after every trainer step; on schedule events it shrinks
// the state's sparse patterns — and every dependent storage layer — in
// place, on other steps it is a free no-op. The parallel engine drives the
// same machinery via ParallelConfig.PruneSchedule.
func NewGradualPruner(s *State, sched PruneSchedule) (*GradualPruner, error) {
	return core.NewGradualPruner(s, sched)
}

// Sparsify stores the weight of every pruned Linear layer of m as a CSR, in
// place, and returns m: SpMM forward and input gradient, and an SDDMM weight
// gradient restricted to the surviving pattern, at every sparsity (see
// "Sparse execution"). Build the model's state after sparsifying it.
func Sparsify(m *Model, pr *PruneResult) *Model { return nn.Sparsify(m, pr) }

func pruneLayers(m *Model) []prune.Layer {
	var layers []prune.Layer
	for _, e := range m.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	return layers
}

// --- Training ---------------------------------------------------------------

// NewState wraps a model's mixed-precision states. pr may be nil in
// ModeDense; ModeSAMO requires a pruning result.
func NewState(m *Model, opt Optimizer, mode Mode, pr *PruneResult) *State {
	return core.NewModelState(m, opt, mode, pr)
}

// NewTrainer returns a single-process trainer over a state.
func NewTrainer(s *State) *Trainer { return core.NewTrainer(s) }

// NewAdam returns Adam without weight decay.
func NewAdam(lr float64) Optimizer { return optim.NewAdam(lr) }

// NewAdamW returns decoupled-weight-decay Adam (GPT recipe).
func NewAdamW(lr, weightDecay float64) Optimizer { return optim.NewAdamW(lr, weightDecay) }

// Train runs hybrid data + inter-layer parallel training on an in-process
// fabric: cfg.Ginter pipeline stages × cfg.Gdata data-parallel replicas,
// one goroutine per simulated GPU. build must return identically
// initialized models (fixed seed); optb builds one optimizer per rank.
func Train(cfg ParallelConfig, build func() *Model, optb func() Optimizer, pr *PruneResult, batches []Batch) ParallelResult {
	return axonn.Train(cfg, build, optb, pr, batches)
}

// --- Memory model (§III-D) --------------------------------------------------

// MemorySavingsPercent returns the relative saving 100·(24p−6)/20.
func MemorySavingsPercent(sparsity float64) float64 { return core.SavingsPercent(sparsity) }

// --- Experiments (Summit simulator and Figure 4 training) -------------------

// RunExperiment regenerates one of the paper's tables or figures into w.
// It returns false for a name ExperimentNames does not list.
func RunExperiment(name string, w io.Writer, trainIters int) bool {
	switch name {
	case "fig1":
		experiments.Figure1(w)
	case "fig2":
		experiments.Figure2(w)
	case "fig3":
		experiments.Figure3(w)
	case "fig4":
		experiments.Figure4(w, trainIters)
	case "fig5":
		experiments.Figure5(w)
	case "fig6":
		experiments.Figure6(w)
	case "fig7":
		experiments.Figure7(w)
	case "fig8":
		experiments.Figure8(w)
	case "table1":
		experiments.Table1(w)
	case "table2":
		experiments.Table2(w)
	case "memory":
		experiments.MemoryReport(w)
	case "sweep":
		experiments.SparsitySweep(w)
	default:
		return false
	}
	return true
}

// ExperimentNames lists the experiments RunExperiment accepts: the paper's
// figures and tables in order, then the extension studies.
func ExperimentNames() []string {
	return []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table1", "table2", "memory", "sweep"}
}

package simulate

import (
	"fmt"

	"github.com/sparse-dl/samo/internal/hw"
)

// Calibration constants. Each stands in for a measured quantity from the
// paper that cannot be derived from first principles on this substrate; the
// source of every number is documented.
const (
	// memOverheadFactor inflates the analytic model-state bytes to the
	// measured footprint (allocator fragmentation, NCCL buffers, fp32 comm
	// staging). Calibrated to §VI: the paper measures 80.16 GB for dense
	// GPT-3 2.7B whose analytic model-state is 20φ ≈ 54 GB → ≈1.4×.
	memOverheadFactor = 1.35

	// sputnikTrainFactor is Sputnik's end-to-end compute-time multiplier
	// versus dense training at 90% sparsity. Note this is far below the
	// single-layer 6–22× of Figure 1: training-size GEMMs (microbatch ×
	// 2048 tokens wide) amortize Sputnik's metadata traversal far better
	// than Figure 1's batch-576 layer, and the paper's own end-to-end data
	// (§VI-B: "AxoNN+SAMO ends up being nearly twice as fast as Sputnik")
	// pins the realized gap. Calibrated to reproduce Figures 6–7.
	sputnikTrainFactor = 2.4

	// compressBW is the effective HBM throughput of the (unfused) gradient
	// compression kernels, calibrated to §VI-C: compression overhead is
	// 8–12% of AxoNN's batch time. Far below the 900 GB/s streaming peak
	// because the operation is a gather with int32 indirection plus
	// per-layer kernel-launch overhead.
	compressBW = 110e9

	// cnnFixedOverhead is per-iteration framework time for the torchvision
	// CNNs (data loading, Python dispatch, many small kernel launches) that
	// does not shrink with GPU count.
	cnnFixedOverhead = 15e-3

	// p2pStreamBW is the effective per-stream bandwidth of AxoNN's pipeline
	// point-to-point path (PyTorch tensor → MPI send over NICs shared by 6
	// GPUs per node). Far below the 12.5 GB/s link peak: calibrated so the
	// exposed p2p share of AxoNN's batch time at 128 GPUs for GPT-3 2.7B
	// matches Figure 8 (~40% of the iteration).
	p2pStreamBW = 0.8e9

	// collectiveBW is the effective per-GPU bandwidth of the NCCL ring
	// all-reduce when the data-parallel peers are scattered one-per-node
	// (hybrid-parallel GPT runs): six concurrent rings share each node's
	// NIC. Calibrated to Figure 8's collective-phase share at 512 GPUs
	// (SAMO's saving there is 21% of AxoNN's batch time). Pure data
	// parallelism (the CNN runs) keeps whole nodes in one group, so NCCL's
	// hierarchical ring reaches the raw inter-node bandwidth instead.
	collectiveBW = 3e9

	// ds3dEfficiencyBonus reflects Megatron's fused kernels (Table II shows
	// DeepSpeed-3D slightly ahead of AxoNN in pure compute at small scale).
	ds3dEfficiencyBonus = 1.03
)

// Result is the simulated outcome of one (method, job, GPU-count) cell of
// the paper's evaluation.
type Result struct {
	Method Method
	Job    string
	GPUs   int
	Plan   Plan

	BatchTime float64 // seconds per iteration (the y-axis of Figs. 5–7)

	// Non-overlapping phase attribution on stage-0 GPUs (Figure 8):
	Compute    float64 // forward+backward kernels (+ SAMO compression, per §VI-C)
	P2P        float64 // exposed point-to-point transmission stalls
	Bubble     float64 // pipeline bubble
	Collective float64 // data-parallel all-reduce (+ ZeRO/Megatron extras)
	Other      float64 // optimizer step, expansion, bookkeeping

	PeakFraction float64 // fraction of aggregate fp16 peak (Table II)
	Feasible     bool
}

// Run simulates one training iteration. sparsity applies to MethodSAMO and
// MethodSputnik (the paper prunes to 0.9 everywhere).
func Run(method Method, j Job, m hw.Machine, gpus int, sparsity float64) Result {
	r := Result{Method: method, Job: j.Name, GPUs: gpus}
	plan := planWithOverhead(method, j, m, gpus, sparsity)
	if !plan.Feasible {
		return r
	}
	r.Plan = plan
	r.Feasible = true

	eff := m.TrainEfficiency
	if j.Efficiency > 0 {
		eff = j.Efficiency
	}
	if method == MethodDeepSpeed3D {
		eff *= ds3dEfficiencyBonus
	}
	computeFactor := 1.0
	if method == MethodSputnik {
		computeFactor = sputnikTrainFactor
	}

	shards := plan.Ginter * plan.Gintra
	flopsPerMB := j.FlopsPerBatch * float64(plan.MBS) / float64(j.Batch)
	tf := flopsPerMB * j.FwdFraction / float64(shards) / (m.PeakHalfFlops * eff) * computeFactor
	tb := flopsPerMB * (1 - j.FwdFraction) / float64(shards) / (m.PeakHalfFlops * eff) * computeFactor

	if plan.Ginter > 1 {
		msgBytes := int64(plan.MBS) * j.SampleMsgBytes / int64(plan.Gintra)
		xfer := m.InterLatency + float64(msgBytes)/p2pStreamBW
		if shards <= m.GPUsPerNode {
			xfer = m.IntraLatency + float64(msgBytes)/m.IntraBW
		}
		pr := SimulatePipeline(PipelineSpec{
			Stages: plan.Ginter, Microbatches: plan.Micro,
			FwdTime: tf, BwdTime: tb, XferTime: xfer,
		}, false)
		// Report stage 0 (the paper's Figure 8 profiles GPU 0).
		r.Compute = pr.Stages[0].Compute
		r.P2P = pr.Stages[0].P2P
		r.Bubble = pr.Stages[0].Bubble
		r.BatchTime = pr.Span
	} else {
		r.Compute = float64(plan.Micro) * (tf + tb)
		r.BatchTime = r.Compute
	}

	// SAMO's gradient compression: per microbatch, read the layer's dense
	// fp32 gradients and gather the unpruned ones (counted as compute, per
	// §VI-C: "the difference in the compute times is the overhead of
	// compressing the parameter gradients").
	if method == MethodSAMO {
		f := 1 - sparsity
		phiStage := float64(j.Phi) / float64(plan.Ginter)
		bytesPerMB := (4 + 6*f) * phiStage
		tCompress := float64(plan.Micro) * bytesPerMB / compressBW
		r.Compute += tCompress
		r.BatchTime += tCompress
	}

	// Data-parallel gradient all-reduce (fp16 payload). SAMO and Sputnik
	// reduce only unpruned gradients — the §IV-A optimization.
	gradBytes := 2 * j.Phi / int64(shards)
	if method == MethodSAMO || method == MethodSputnik {
		gradBytes = int64(2 * (1 - sparsity) * float64(j.Phi) / float64(plan.Ginter))
	}
	spanNodes := gpus > m.GPUsPerNode
	hierarchical := shards == 1 // pure DP: whole nodes in one group
	tColl := allReduce(m, gradBytes, plan.Gdata, spanNodes, hierarchical)

	if method == MethodDeepSpeed3D {
		// ZeRO-1: all-gather updated fp16 parameters across the data group.
		tColl += allReduce(m, 2*j.Phi/int64(shards), plan.Gdata, spanNodes, hierarchical) / 2
		if plan.Gintra > 1 && j.Kind == KindTransformer {
			// Megatron intra-layer all-reduces: 4 per layer per microbatch
			// (2 forward + 2 backward) of activation-sized payloads over
			// the NVLink-connected Gintra group.
			actBytes := int64(2 * plan.MBS * j.Seq * j.Hidden)
			layers := (j.NumLayers + plan.Ginter - 1) / plan.Ginter
			per := m.AllReduceTime(actBytes, plan.Gintra)
			tColl += float64(4*layers*plan.Micro) * per
		}
	}

	r.Collective = tColl
	r.BatchTime += tColl

	if j.Kind == KindCNN {
		r.Other += cnnFixedOverhead
		r.BatchTime += cnnFixedOverhead
	}

	// Optimizer step (+ SAMO expansion): streaming over the per-GPU states.
	opt := m.MemBoundTime(3 * float64(plan.StateBytesPerGPU) / memOverheadFactor)
	if method == MethodSAMO {
		opt += m.MemBoundTime(float64(2*j.Phi) / float64(plan.Ginter)) // expand into θ16
	}
	r.Other += opt
	r.BatchTime += opt

	r.PeakFraction = j.FlopsPerBatch / (r.BatchTime * float64(gpus) * m.PeakHalfFlops)
	return r
}

// allReduce models the NCCL ring at the calibrated effective bandwidth,
// forcing the inter-node path when the data-parallel peers live on
// different nodes (they always do once the job spans nodes: peers with the
// same stage sit in different pipelines).
func allReduce(m hw.Machine, bytes int64, g int, spanNodes, hierarchical bool) float64 {
	if g <= 1 {
		return 0
	}
	if !spanNodes {
		return m.AllReduceTime(bytes, g)
	}
	bw := collectiveBW
	if hierarchical {
		bw = m.InterBW // NVLink-first hierarchical ring, full NIC per group
	}
	steps := float64(2 * (g - 1))
	return steps*m.InterLatency + 2*float64(g-1)/float64(g)*float64(bytes)/bw
}

// planWithOverhead applies the measured-footprint factor before planning.
func planWithOverhead(method Method, j Job, m hw.Machine, gpus int, sparsity float64) Plan {
	scaled := m
	// Shrink capacity instead of inflating every byte term: equivalent and
	// keeps Plan's reported bytes interpretable.
	scaled.MemoryBytes = int64(float64(m.MemoryBytes) / memOverheadFactor)
	plan := PlanConfig(method, j, scaled, gpus, sparsity)
	return plan
}

// Speedup returns the percentage improvement of b over a ((a−b)/a·100).
func Speedup(a, b Result) float64 {
	if !a.Feasible || !b.Feasible || a.BatchTime == 0 {
		return 0
	}
	return 100 * (a.BatchTime - b.BatchTime) / a.BatchTime
}

// String renders a result row.
func (r Result) String() string {
	if !r.Feasible {
		return fmt.Sprintf("%-14s %-16s %5d GPUs: OOM/infeasible", r.Job, r.Method, r.GPUs)
	}
	return fmt.Sprintf("%-14s %-16s %5d GPUs: %8.3fs  (Ginter=%d Gdata=%d Gintra=%d mbs=%d M=%d, %4.1f%% peak)",
		r.Job, r.Method, r.GPUs, r.BatchTime, r.Plan.Ginter, r.Plan.Gdata, r.Plan.Gintra,
		r.Plan.MBS, r.Plan.Micro, 100*r.PeakFraction)
}

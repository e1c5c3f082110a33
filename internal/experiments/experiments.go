// Package experiments regenerates every table and figure of the paper's
// evaluation (§V–VI). Each Figure*/Table* function prints the same rows or
// series the paper reports and returns the underlying data so tests can
// assert the shapes (who wins, by roughly what factor, where the crossovers
// fall). Absolute numbers come from the calibrated Summit simulator for the
// scaling studies and from real in-process training for the statistical
// efficiency study.
package experiments

import (
	"fmt"
	"io"

	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/hw"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/simulate"
)

// Sparsity is the pruned fraction used throughout the evaluation (§V: "we
// prune the networks to a sparsity of 90%").
const Sparsity = 0.9

// Fig1Row is one point of the kernel comparison sweep.
type Fig1Row struct {
	Dim                       int
	CuBLAS, Sputnik, CuSPARSE float64 // seconds
}

// Figure1 reproduces the FC-layer kernel sweep: batch 576, square weights
// 128²–4096², 90% sparse, mixed precision. Dense cuBLAS wins by 6–22× over
// Sputnik; cuSPARSE is far behind (its design point is >99% scientific
// sparsity).
func Figure1(w io.Writer) []Fig1Row {
	m := hw.Summit()
	const batch = 576
	fmt.Fprintln(w, "Figure 1: FC layer time, batch 576, 90% sparse weights (model-calibrated)")
	fmt.Fprintf(w, "%8s %12s %12s %12s %14s\n", "dim", "cuBLAS(ms)", "Sputnik(ms)", "cuSPARSE(ms)", "Sputnik/cuBLAS")
	var rows []Fig1Row
	for _, dim := range []int{128, 256, 512, 1024, 2048, 4096} {
		r := Fig1Row{
			Dim:      dim,
			CuBLAS:   m.SparseFCTime(hw.KernelCuBLAS, dim, batch, Sparsity),
			Sputnik:  m.SparseFCTime(hw.KernelSputnik, dim, batch, Sparsity),
			CuSPARSE: m.SparseFCTime(hw.KernelCuSPARSE, dim, batch, Sparsity),
		}
		rows = append(rows, r)
		fmt.Fprintf(w, "%8d %12.4f %12.4f %12.4f %14.1f\n",
			dim, r.CuBLAS*1e3, r.Sputnik*1e3, r.CuSPARSE*1e3, r.Sputnik/r.CuBLAS)
	}
	return rows
}

// Fig2Row is one point of the analytical memory-savings curve.
type Fig2Row struct {
	Sparsity float64
	Savings  float64 // percent
}

// Figure2 reproduces the §III-D memory model: savings cross zero at p=0.25
// and reach 66–78% in the 0.8–0.9 region of interest.
func Figure2(w io.Writer) []Fig2Row {
	fmt.Fprintln(w, "Figure 2: SAMO memory savings vs sparsity (analytical, eq. 5)")
	fmt.Fprintf(w, "%10s %12s\n", "sparsity", "savings(%)")
	var rows []Fig2Row
	for p := 0.0; p <= 1.0001; p += 0.05 {
		r := Fig2Row{Sparsity: p, Savings: core.SavingsPercent(p)}
		rows = append(rows, r)
		mark := ""
		if p >= 0.8-1e-9 && p <= 0.9+1e-9 {
			mark = "  <- region of interest"
		}
		fmt.Fprintf(w, "%10.2f %12.1f%s\n", r.Sparsity, r.Savings, mark)
	}
	fmt.Fprintf(w, "break-even sparsity: %.2f\n", core.BreakEvenSparsity)
	return rows
}

// Figure3 renders the paper's pipeline illustration (Ginter=3, 5
// microbatches, backward = 2× forward) as an ASCII Gantt chart and verifies
// the 6-unit bubble.
func Figure3(w io.Writer) simulate.PipelineResult {
	res := simulate.SimulatePipeline(simulate.PipelineSpec{
		Stages: 3, Microbatches: 5, FwdTime: 1, BwdTime: 2,
	}, true)
	fmt.Fprintln(w, "Figure 3: inter-layer pipeline schedule, Ginter=3, 5 microbatches")
	fmt.Fprintln(w, "(F=forward, B=backward, .=bubble; one column per time unit)")
	span := int(res.Span + 0.5)
	grid := make([][]byte, 3)
	for s := range grid {
		grid[s] = make([]byte, span)
		for i := range grid[s] {
			grid[s][i] = '.'
		}
	}
	for _, op := range res.Trace {
		ch := byte('0' + op.Microbatch)
		glyph := byte('F')
		if op.Backward {
			glyph = 'B'
		}
		for tt := int(op.Start); tt < int(op.End+0.5) && tt < span; tt++ {
			if tt == int(op.Start) {
				grid[op.Stage][tt] = glyph
			} else {
				grid[op.Stage][tt] = ch
			}
		}
	}
	for s := 0; s < 3; s++ {
		fmt.Fprintf(w, "GPU %d |%s|  bubble=%.0f units\n", s, grid[s], res.Stages[s].Bubble)
	}
	fmt.Fprintf(w, "bubble per GPU = (Ginter-1)x(tf+tb) = %.0f units; makespan = %.0f\n",
		res.Stages[0].Bubble, res.Span)
	return res
}

// scalingStudy runs one strong-scaling panel.
func scalingStudy(w io.Writer, j simulate.Job, methods []simulate.Method) map[simulate.Method][]simulate.Result {
	m := hw.Summit()
	out := make(map[simulate.Method][]simulate.Result)
	fmt.Fprintf(w, "\nTime per iteration for %s (batch %d)\n", j.Name, j.Batch)
	fmt.Fprintf(w, "%8s", "GPUs")
	for _, meth := range methods {
		fmt.Fprintf(w, " %14s", meth)
	}
	fmt.Fprintf(w, " %10s\n", "speedup*")
	for g := j.MinGPUs; g <= j.MaxGPUs; g *= 2 {
		fmt.Fprintf(w, "%8d", g)
		var ax, sa simulate.Result
		for _, meth := range methods {
			r := simulate.Run(meth, j, m, g, Sparsity)
			out[meth] = append(out[meth], r)
			if meth == simulate.MethodAxoNN {
				ax = r
			}
			if meth == simulate.MethodSAMO {
				sa = r
			}
			if r.Feasible {
				fmt.Fprintf(w, " %13.3fs", r.BatchTime)
			} else {
				fmt.Fprintf(w, " %14s", "OOM")
			}
		}
		fmt.Fprintf(w, " %9.0f%%\n", simulate.Speedup(ax, sa))
	}
	fmt.Fprintln(w, "(*) AxoNN+SAMO speedup over AxoNN, the annotation of Figs. 5-7")
	return out
}

// Figure5 reproduces the CNN strong-scaling study (WideResnet-101, VGG-19;
// 16–128 GPUs; Sputnik omitted — no sparse convolutions, as in the paper).
func Figure5(w io.Writer) map[string]map[simulate.Method][]simulate.Result {
	fmt.Fprintln(w, "Figure 5: strong scaling, CNNs on Summit (simulated)")
	jobs := simulate.StandardJobs()
	methods := []simulate.Method{simulate.MethodDeepSpeed3D, simulate.MethodAxoNN, simulate.MethodSAMO}
	return map[string]map[simulate.Method][]simulate.Result{
		jobs[0].Name: scalingStudy(w, jobs[0], methods),
		jobs[1].Name: scalingStudy(w, jobs[1], methods),
	}
}

// Figure6 reproduces GPT-3 XL and GPT-3 2.7B strong scaling (64–512 GPUs).
func Figure6(w io.Writer) map[string]map[simulate.Method][]simulate.Result {
	fmt.Fprintln(w, "Figure 6: strong scaling, GPT-3 XL and 2.7B on Summit (simulated)")
	jobs := simulate.StandardJobs()
	methods := []simulate.Method{simulate.MethodSputnik, simulate.MethodDeepSpeed3D, simulate.MethodAxoNN, simulate.MethodSAMO}
	return map[string]map[simulate.Method][]simulate.Result{
		jobs[2].Name: scalingStudy(w, jobs[2], methods),
		jobs[3].Name: scalingStudy(w, jobs[3], methods),
	}
}

// Figure7 reproduces GPT-3 6.7B and 13B strong scaling (128–2048 GPUs).
func Figure7(w io.Writer) map[string]map[simulate.Method][]simulate.Result {
	fmt.Fprintln(w, "Figure 7: strong scaling, GPT-3 6.7B and 13B on Summit (simulated)")
	jobs := simulate.StandardJobs()
	methods := []simulate.Method{simulate.MethodSputnik, simulate.MethodDeepSpeed3D, simulate.MethodAxoNN, simulate.MethodSAMO}
	return map[string]map[simulate.Method][]simulate.Result{
		jobs[4].Name: scalingStudy(w, jobs[4], methods),
		jobs[5].Name: scalingStudy(w, jobs[5], methods),
	}
}

// Figure8 reproduces the batch-time breakdown of GPT-3 2.7B on 128/256/512
// GPUs: non-overlapping phases on GPU 0 for AxoNN (A) and AxoNN+SAMO (B).
func Figure8(w io.Writer) map[int][2]simulate.Result {
	m := hw.Summit()
	j := simulate.TransformerJob(nn.GPT3_2B7)
	fmt.Fprintln(w, "Figure 8: breakdown of batch time for GPT-3 2.7B on GPU 0 (simulated)")
	fmt.Fprintf(w, "%6s %14s %9s %9s %9s %9s %9s %9s\n",
		"GPUs", "method", "total(s)", "compute", "p2p", "bubble", "coll.", "other")
	out := make(map[int][2]simulate.Result)
	for _, g := range []int{128, 256, 512} {
		ax := simulate.Run(simulate.MethodAxoNN, j, m, g, Sparsity)
		sa := simulate.Run(simulate.MethodSAMO, j, m, g, Sparsity)
		out[g] = [2]simulate.Result{ax, sa}
		for _, r := range []simulate.Result{ax, sa} {
			fmt.Fprintf(w, "%6d %14s %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
				g, r.Method, r.BatchTime, r.Compute, r.P2P, r.Bubble, r.Collective, r.Other)
		}
		fmt.Fprintf(w, "       savings as %% of AxoNN batch: p2p %.0f%%  bubble %.0f%%  collective %.0f%%  (compression overhead %.0f%%)\n",
			100*(ax.P2P-sa.P2P)/ax.BatchTime,
			100*(ax.Bubble-sa.Bubble)/ax.BatchTime,
			100*(ax.Collective-sa.Collective)/ax.BatchTime,
			100*(sa.Compute-ax.Compute)/ax.BatchTime)
	}
	return out
}

// Table1 prints the model zoo (Table I).
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table I: neural networks used in this study")
	fmt.Fprintf(w, "%-16s %14s %12s %14s\n", "Neural Network", "# Parameters", "Batch Size", "No. of GPUs")
	for _, j := range simulate.StandardJobs() {
		fmt.Fprintf(w, "%-16s %13.2fM %12d %8d-%d\n",
			j.Name, float64(j.Phi)/1e6, j.Batch, j.MinGPUs, j.MaxGPUs)
	}
}

// Table2Row is one row of the utilization table.
type Table2Row struct {
	GPUs                            int
	Sputnik, DeepSpeed, AxoNN, SAMO float64 // percent of fp16 peak
}

// Table2 reproduces the percentage-of-peak table for GPT-3 13B.
func Table2(w io.Writer) []Table2Row {
	m := hw.Summit()
	j := simulate.TransformerJob(nn.GPT3_13B)
	fmt.Fprintln(w, "Table II: % of peak half-precision throughput, GPT-3 13B (simulated)")
	fmt.Fprintf(w, "%8s %10s %14s %8s %12s\n", "GPUs", "Sputnik", "DeepSpeed-3D", "AxoNN", "AxoNN+SAMO")
	var rows []Table2Row
	for _, g := range []int{256, 512, 1024, 2048} {
		r := Table2Row{GPUs: g}
		r.Sputnik = 100 * simulate.Run(simulate.MethodSputnik, j, m, g, Sparsity).PeakFraction
		r.DeepSpeed = 100 * simulate.Run(simulate.MethodDeepSpeed3D, j, m, g, Sparsity).PeakFraction
		r.AxoNN = 100 * simulate.Run(simulate.MethodAxoNN, j, m, g, Sparsity).PeakFraction
		r.SAMO = 100 * simulate.Run(simulate.MethodSAMO, j, m, g, Sparsity).PeakFraction
		rows = append(rows, r)
		fmt.Fprintf(w, "%8d %10.1f %14.1f %8.1f %12.1f\n", g, r.Sputnik, r.DeepSpeed, r.AxoNN, r.SAMO)
	}
	return rows
}

// planGPUs is the GPU count of the memory plan, clamped to each job's
// Table I range.
const planGPUs = 512

// PlanRow is one Table I model's memory plan: model-state bytes dense and
// under SAMO, and the layout each needs (a zero Plan when it does not fit).
type PlanRow struct {
	Job                 string
	Dense, SAMO         int64
	DensePlan, SAMOPlan simulate.Plan
}

// MemoryReport prints the §IV-B mechanism by which memory savings become
// communication savings: every Table I model's state bytes and the
// Ginter×Gdata it needs on planGPUs Summit GPUs, dense and under SAMO (GPT-3
// 2.7B goes from Ginter 8 to 2). Then the §VI-C headline for GPT-3 2.7B and
// the §III-D break-even sparsity.
func MemoryReport(w io.Writer) []PlanRow {
	m := hw.Summit()
	fmt.Fprintf(w, "Memory plan: model states at sparsity %.2f on %s (%d GPUs, %.0f GB each)\n",
		Sparsity, m.Name, planGPUs, float64(m.MemoryBytes)/(1<<30))
	fmt.Fprintf(w, "%-16s %12s %12s %10s %14s %14s\n",
		"model", "dense(GB)", "SAMO(GB)", "saved", "dense layout", "SAMO layout")
	layout := func(p simulate.Plan) string {
		if !p.Feasible {
			return "OOM"
		}
		return fmt.Sprintf("Gi=%d Gd=%d", p.Ginter, p.Gdata)
	}
	var rows []PlanRow
	for _, j := range simulate.StandardJobs() {
		g := min(max(planGPUs, j.MinGPUs), j.MaxGPUs)
		r := PlanRow{Job: j.Name,
			Dense:     core.DefaultModelStateBytes(j.Phi),
			SAMO:      core.SAMOModelStateBytes(j.Phi, Sparsity),
			DensePlan: simulate.Run(simulate.MethodAxoNN, j, m, g, Sparsity).Plan,
			SAMOPlan:  simulate.Run(simulate.MethodSAMO, j, m, g, Sparsity).Plan,
		}
		rows = append(rows, r)
		fmt.Fprintf(w, "%-16s %12.2f %12.2f %9.0f%% %14s %14s\n",
			r.Job, core.GiB(r.Dense), core.GiB(r.SAMO), 100*(1-float64(r.SAMO)/float64(r.Dense)),
			layout(r.DensePlan), layout(r.SAMOPlan))
	}
	// nn.Prunable keeps embeddings, biases and norms dense (20 B): the paper's 74 %.
	phi, kept := nn.GPT3_2B7.NumParams(), nn.GPT3_2B7.PrunableParams()
	dense, uniform := core.DefaultModelStateBytes(phi), core.SAMOModelStateBytes(phi, Sparsity)
	samo := core.SAMOModelStateBytes(kept, Sparsity) + core.DefaultModelStateBytes(phi-kept)
	fmt.Fprintf(w, "GPT-3 2.7B model states: dense %.2f GB -> SAMO %.2f GB (%.0f%% reduction; "+
		"%.2f GB, %.0f%%, with every parameter pruned as in §III-D)\n",
		core.GiB(dense), core.GiB(samo), 100*(1-float64(samo)/float64(dense)),
		core.GiB(uniform), 100*(1-float64(uniform)/float64(dense)))
	fmt.Fprintf(w, "analytical break-even sparsity: %.2f (below it SAMO costs memory)\n",
		core.BreakEvenSparsity)
	return rows
}

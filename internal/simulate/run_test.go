package simulate

import (
	"testing"

	"github.com/sparse-dl/samo/internal/hw"
	"github.com/sparse-dl/samo/internal/nn"
)

func summit() hw.Machine { return hw.Summit() }

func job27B() Job { return TransformerJob(nn.GPT3_2B7) }

func TestPlannerReproducesPaperGinter(t *testing.T) {
	// The paper's central example (§I, §VI-C): GPT-3 2.7B needs ~80 GB of
	// model state dense but ~20 GB with SAMO, so SAMO deploys one model
	// instance on far fewer GPUs. Dense AxoNN needs Ginter=8 on Summit's
	// 16 GB V100s; SAMO fits in Ginter=2.
	j := job27B()
	dense := planWithOverhead(MethodAxoNN, j, summit(), 128, 0.9)
	samo := planWithOverhead(MethodSAMO, j, summit(), 128, 0.9)
	if !dense.Feasible || !samo.Feasible {
		t.Fatal("2.7B must be feasible on 128 GPUs")
	}
	if dense.Ginter != 8 {
		t.Errorf("dense Ginter = %d, want 8", dense.Ginter)
	}
	if samo.Ginter != 2 {
		t.Errorf("SAMO Ginter = %d, want 2", samo.Ginter)
	}
	if samo.Gdata <= dense.Gdata {
		t.Error("SAMO must free GPUs for data parallelism")
	}
}

func TestPlannerSAMONeverWorseThanDense(t *testing.T) {
	for _, j := range StandardJobs() {
		for g := j.MinGPUs; g <= j.MaxGPUs; g *= 2 {
			d := planWithOverhead(MethodAxoNN, j, summit(), g, 0.9)
			s := planWithOverhead(MethodSAMO, j, summit(), g, 0.9)
			if !d.Feasible || !s.Feasible {
				t.Fatalf("%s on %d GPUs must be feasible (dense %v samo %v)",
					j.Name, g, d.Feasible, s.Feasible)
			}
			if s.Ginter > d.Ginter {
				t.Errorf("%s G=%d: SAMO Ginter %d > dense %d", j.Name, g, s.Ginter, d.Ginter)
			}
		}
	}
}

func TestPlannerRespectsCapacity(t *testing.T) {
	m := summit()
	capacity := int64(float64(m.MemoryBytes)/memOverheadFactor) - frameworkReserve
	for _, j := range StandardJobs() {
		for _, meth := range []Method{MethodAxoNN, MethodSAMO, MethodDeepSpeed3D, MethodSputnik} {
			p := planWithOverhead(meth, j, m, j.MaxGPUs, 0.9)
			if p.Feasible && p.TotalPerGPU > capacity {
				t.Errorf("%s/%s: plan %d bytes exceeds capacity %d", j.Name, meth, p.TotalPerGPU, capacity)
			}
		}
	}
}

func TestInfeasibleWhenTooFewGPUs(t *testing.T) {
	// 13B dense cannot fit on 8 GPUs (needs ≥ 260 GB of state).
	p := planWithOverhead(MethodAxoNN, TransformerJob(nn.GPT3_13B), summit(), 8, 0.9)
	if p.Feasible {
		t.Error("13B dense on 8 GPUs should be infeasible")
	}
	r := Run(MethodAxoNN, TransformerJob(nn.GPT3_13B), summit(), 8, 0.9)
	if r.Feasible {
		t.Error("Run must propagate infeasibility")
	}
}

func TestCNNsRunPureDataParallel(t *testing.T) {
	// §VI-B: the CNNs fit on a single GPU, so all frameworks run them with
	// a full copy per GPU — all communication is the gradient all-reduce.
	for _, j := range StandardJobs()[:2] {
		for _, meth := range []Method{MethodAxoNN, MethodSAMO} {
			r := Run(meth, j, summit(), 64, 0.9)
			if !r.Feasible || r.Plan.Ginter != 1 {
				t.Errorf("%s/%s: Ginter = %d, want 1", j.Name, meth, r.Plan.Ginter)
			}
			if r.P2P != 0 || r.Bubble != 0 {
				t.Errorf("%s/%s: pure DP must have no pipeline phases", j.Name, meth)
			}
		}
	}
}

// figure 5-7 shape: SAMO wins everywhere, and its advantage grows with GPU
// count (the paper's headline observation: communication grows with scale
// and SAMO attacks communication).
func TestStrongScalingShape(t *testing.T) {
	m := summit()
	for _, j := range StandardJobs() {
		prev := -100.0
		for g := j.MinGPUs; g <= j.MaxGPUs; g *= 2 {
			ax := Run(MethodAxoNN, j, m, g, 0.9)
			sa := Run(MethodSAMO, j, m, g, 0.9)
			if !ax.Feasible || !sa.Feasible {
				t.Fatalf("%s infeasible at %d", j.Name, g)
			}
			sp := Speedup(ax, sa)
			if g > j.MinGPUs && sa.BatchTime >= ax.BatchTime {
				t.Errorf("%s G=%d: SAMO (%.3fs) not faster than AxoNN (%.3fs)", j.Name, g, sa.BatchTime, ax.BatchTime)
			}
			if sp < prev-3 { // allow small non-monotonic wiggle
				t.Errorf("%s G=%d: speedup %.1f%% fell from %.1f%%", j.Name, g, sp, prev)
			}
			prev = sp
		}
		// Largest speedup at the largest count, as in Figs. 5–7.
		axMax := Run(MethodAxoNN, j, m, j.MaxGPUs, 0.9)
		saMax := Run(MethodSAMO, j, m, j.MaxGPUs, 0.9)
		if s := Speedup(axMax, saMax); s < 10 {
			t.Errorf("%s at max GPUs: speedup %.1f%%, want >= 10%%", j.Name, s)
		}
	}
}

func TestDeepSpeedCloseToAxoNN(t *testing.T) {
	// §VI-B: AxoNN and DeepSpeed-3D have similar batch times (both dense).
	m := summit()
	for _, j := range StandardJobs() {
		g := j.MaxGPUs / 2
		ax := Run(MethodAxoNN, j, m, g, 0.9)
		ds := Run(MethodDeepSpeed3D, j, m, g, 0.9)
		if !ax.Feasible || !ds.Feasible {
			t.Fatalf("%s infeasible", j.Name)
		}
		ratio := ds.BatchTime / ax.BatchTime
		if ratio < 0.7 || ratio > 2.2 {
			t.Errorf("%s: DS-3D/AxoNN ratio %.2f outside plausible band", j.Name, ratio)
		}
	}
}

func TestSputnikWorstForTransformers(t *testing.T) {
	// §VI-B: "AxoNN+SAMO ends up being nearly twice as fast as Sputnik
	// across all the GPT-3 style neural networks."
	m := summit()
	for _, j := range StandardJobs()[2:] {
		for g := j.MinGPUs; g <= j.MaxGPUs; g *= 2 {
			sp := Run(MethodSputnik, j, m, g, 0.9)
			sa := Run(MethodSAMO, j, m, g, 0.9)
			if !sp.Feasible || !sa.Feasible {
				continue
			}
			ratio := sp.BatchTime / sa.BatchTime
			if ratio < 1.4 || ratio > 3.5 {
				t.Errorf("%s G=%d: Sputnik/SAMO ratio %.2f, want ≈2", j.Name, g, ratio)
			}
		}
	}
}

func TestCNNSpeedupBands(t *testing.T) {
	// Fig. 5 shapes: VGG-19 gains more than WideResnet-101 at every scale
	// (it spends proportionally more time in the all-reduce), and both land
	// in plausible bands (paper: 7–15% WRN, 18–44% VGG).
	m := summit()
	wrn, vgg := StandardJobs()[0], StandardJobs()[1]
	for g := 16; g <= 128; g *= 2 {
		sw := Speedup(Run(MethodAxoNN, wrn, m, g, 0.9), Run(MethodSAMO, wrn, m, g, 0.9))
		sv := Speedup(Run(MethodAxoNN, vgg, m, g, 0.9), Run(MethodSAMO, vgg, m, g, 0.9))
		if sv <= sw {
			t.Errorf("G=%d: VGG speedup %.1f%% should exceed WRN %.1f%%", g, sv, sw)
		}
		if sw < 2 || sw > 35 {
			t.Errorf("G=%d: WRN speedup %.1f%% outside band", g, sw)
		}
		if sv < 10 || sv > 55 {
			t.Errorf("G=%d: VGG speedup %.1f%% outside band", g, sv)
		}
	}
}

func TestFigure8BreakdownShape(t *testing.T) {
	// §VI-C: at 128 GPUs SAMO's win comes mostly from p2p; at 512 the
	// bubble+collective terms dominate and the p2p delta shrinks. The
	// compression overhead (compute delta) is ~8-12% of AxoNN's batch.
	m := summit()
	j := job27B()
	type deltas struct{ p2p, bubble, coll, overhead float64 }
	get := func(g int) deltas {
		ax := Run(MethodAxoNN, j, m, g, 0.9)
		sa := Run(MethodSAMO, j, m, g, 0.9)
		return deltas{
			p2p:      (ax.P2P - sa.P2P) / ax.BatchTime * 100,
			bubble:   (ax.Bubble - sa.Bubble) / ax.BatchTime * 100,
			coll:     (ax.Collective - sa.Collective) / ax.BatchTime * 100,
			overhead: (sa.Compute - ax.Compute) / ax.BatchTime * 100,
		}
	}
	d128, d512 := get(128), get(512)
	if d128.p2p <= d128.bubble || d128.p2p <= d128.coll {
		t.Errorf("at 128 GPUs p2p must dominate the savings: %+v", d128)
	}
	if d512.bubble+d512.coll <= d512.p2p {
		t.Errorf("at 512 GPUs bubble+collective must dominate: %+v", d512)
	}
	if d128.p2p <= d512.p2p {
		t.Errorf("p2p delta must shrink with scale: %.1f%% -> %.1f%%", d128.p2p, d512.p2p)
	}
	if d128.overhead < 4 || d128.overhead > 16 {
		t.Errorf("compression overhead %.1f%% of batch, want ≈8-12%%", d128.overhead)
	}
	// Net win everywhere: savings exceed overhead.
	if d128.p2p+d128.bubble+d128.coll <= d128.overhead {
		t.Error("savings must exceed overhead at 128 GPUs")
	}
}

func TestTable2UtilizationShape(t *testing.T) {
	// Table II: utilization decreases with scale for every framework;
	// AxoNN+SAMO holds the most; Sputnik by far the least.
	m := summit()
	j := TransformerJob(nn.GPT3_13B)
	prev := map[Method]float64{}
	for _, g := range []int{256, 512, 1024, 2048} {
		util := map[Method]float64{}
		for _, meth := range []Method{MethodSputnik, MethodDeepSpeed3D, MethodAxoNN, MethodSAMO} {
			r := Run(meth, j, m, g, 0.9)
			if !r.Feasible {
				t.Fatalf("%s infeasible at %d", meth, g)
			}
			util[meth] = 100 * r.PeakFraction
			if p, ok := prev[meth]; ok && util[meth] >= p {
				t.Errorf("%s: utilization rose with scale (%0.1f -> %0.1f)", meth, p, util[meth])
			}
		}
		if util[MethodSAMO] <= util[MethodAxoNN] {
			t.Errorf("G=%d: SAMO utilization must lead AxoNN", g)
		}
		if util[MethodSputnik] >= util[MethodAxoNN] {
			t.Errorf("G=%d: Sputnik utilization must trail the dense frameworks", g)
		}
		prev = util
	}
	// SAMO retains a materially higher fraction at 2048 GPUs (paper: 31.0
	// vs 22.9).
	sa := Run(MethodSAMO, j, m, 2048, 0.9)
	ax := Run(MethodAxoNN, j, m, 2048, 0.9)
	if 100*(sa.PeakFraction-ax.PeakFraction) < 4 {
		t.Errorf("SAMO advantage at 2048 GPUs too small: %.1f vs %.1f",
			100*sa.PeakFraction, 100*ax.PeakFraction)
	}
}

func TestSparsitySensitivity(t *testing.T) {
	// Higher sparsity → more memory savings → no worse Ginter and payloads.
	m := summit()
	j := job27B()
	s80 := Run(MethodSAMO, j, m, 256, 0.8)
	s90 := Run(MethodSAMO, j, m, 256, 0.9)
	if s90.Plan.Ginter > s80.Plan.Ginter {
		t.Error("higher sparsity must not need more pipeline stages")
	}
	if s90.BatchTime > s80.BatchTime*1.02 {
		t.Errorf("90%% sparsity (%.3fs) should be at least as fast as 80%% (%.3fs)",
			s90.BatchTime, s80.BatchTime)
	}
}

func TestResultString(t *testing.T) {
	r := Run(MethodSAMO, job27B(), summit(), 128, 0.9)
	if s := r.String(); len(s) == 0 {
		t.Error("empty result string")
	}
	bad := Result{Job: "x", Method: MethodAxoNN, GPUs: 4}
	if s := bad.String(); len(s) == 0 {
		t.Error("infeasible result must still render")
	}
}

// TestPhasesSumToBatchTime holds the Figure 8 attribution to the batch
// time it splits: Compute + P2P + Bubble + Collective + Other equals
// BatchTime, to the rounding of a different summation order, for every job,
// method and GPU count the figures and tables price, at the sparsities they
// and the sensitivity sweep use. The CNN jobs' fixed framework time is part
// of Other.
func TestPhasesSumToBatchTime(t *testing.T) {
	m := summit()
	for _, j := range StandardJobs() {
		for _, meth := range []Method{MethodSputnik, MethodDeepSpeed3D, MethodAxoNN, MethodSAMO} {
			for g := j.MinGPUs; g <= j.MaxGPUs; g *= 2 {
				for _, sp := range []float64{0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95} {
					r := Run(meth, j, m, g, sp)
					if !r.Feasible {
						continue
					}
					sum := r.Compute + r.P2P + r.Bubble + r.Collective + r.Other
					if d := sum - r.BatchTime; d > 1e-12*r.BatchTime || d < -1e-12*r.BatchTime {
						t.Errorf("%s %v %d GPUs sparsity %g: phases sum to %.9f s, batch time %.9f s", j.Name, meth, g, sp, sum, r.BatchTime)
					}
				}
			}
		}
	}
}

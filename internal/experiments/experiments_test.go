package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"github.com/sparse-dl/samo/internal/simulate"
)

func TestFigure1Shape(t *testing.T) {
	var buf bytes.Buffer
	rows := Figure1(&buf)
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		ratio := r.Sputnik / r.CuBLAS
		if ratio < 4 || ratio > 25 {
			t.Errorf("dim %d: Sputnik/cuBLAS %.1f outside 6-22x band", r.Dim, ratio)
		}
		if r.CuSPARSE <= r.Sputnik {
			t.Errorf("dim %d: cuSPARSE must be slowest", r.Dim)
		}
	}
	if rows[5].Sputnik/rows[5].CuBLAS <= rows[0].Sputnik/rows[0].CuBLAS {
		t.Error("gap should grow with size")
	}
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Error("missing header")
	}
}

func TestFigure2Shape(t *testing.T) {
	var buf bytes.Buffer
	rows := Figure2(&buf)
	// Monotone increasing; negative below 0.25; 66-78% in [0.8, 0.9].
	for i := 1; i < len(rows); i++ {
		if rows[i].Savings < rows[i-1].Savings {
			t.Fatal("savings must increase with sparsity")
		}
	}
	for _, r := range rows {
		if r.Sparsity < 0.24 && r.Savings >= 0 {
			t.Errorf("p=%.2f should have negative savings", r.Sparsity)
		}
		if r.Sparsity > 0.79 && r.Sparsity < 0.91 && (r.Savings < 65 || r.Savings > 79) {
			t.Errorf("p=%.2f: savings %.1f%% outside 66-78%% band", r.Sparsity, r.Savings)
		}
	}
}

func TestFigure3BubbleIsSixUnits(t *testing.T) {
	var buf bytes.Buffer
	res := Figure3(&buf)
	for s, sb := range res.Stages {
		if sb.Bubble != 6 {
			t.Errorf("stage %d bubble %g, want 6 (the paper's Figure 3)", s, sb.Bubble)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "GPU 0") || !strings.Contains(out, "GPU 2") {
		t.Error("Gantt chart missing rows")
	}
}

func TestFigure4ConvergenceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	var buf bytes.Buffer
	results := Figure4(&buf, 60)
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	for _, r := range results {
		d := r.Dense.Points
		s := r.SAMO.Points
		if len(d) != len(s) || len(d) < 3 {
			t.Fatalf("%s: malformed curves", r.Model)
		}
		// Both runs must learn: final perplexity well below initial.
		if d[len(d)-1].Perplexity >= d[0].Perplexity*0.9 {
			t.Errorf("%s: dense did not learn (%.1f -> %.1f)", r.Model, d[0].Perplexity, d[len(d)-1].Perplexity)
		}
		if s[len(s)-1].Perplexity >= s[0].Perplexity*0.9 {
			t.Errorf("%s: SAMO did not learn (%.1f -> %.1f)", r.Model, s[0].Perplexity, s[len(s)-1].Perplexity)
		}
		// The paper's claim: pruned+SAMO matches dense convergence. At
		// this scale we accept a modest gap.
		df := d[len(d)-1].Perplexity
		sf := s[len(s)-1].Perplexity
		if sf > df*1.35 {
			t.Errorf("%s: SAMO final ppl %.2f too far above dense %.2f", r.Model, sf, df)
		}
	}
}

func TestFigures5to7ReportedSpeedups(t *testing.T) {
	for name, fig := range map[string]func(io.Writer) map[string]map[simulate.Method][]simulate.Result{
		"fig5": Figure5, "fig6": Figure6, "fig7": Figure7,
	} {
		var buf bytes.Buffer
		res := fig(&buf)
		if len(res) != 2 {
			t.Fatalf("%s: %d panels", name, len(res))
		}
		for model, series := range res {
			ax := series[simulate.MethodAxoNN]
			sa := series[simulate.MethodSAMO]
			if len(ax) == 0 || len(ax) != len(sa) {
				t.Fatalf("%s/%s: malformed series", name, model)
			}
			last := len(ax) - 1
			if sp := simulate.Speedup(ax[last], sa[last]); sp < 10 {
				t.Errorf("%s/%s: max-GPU speedup %.1f%%, want >=10%%", name, model, sp)
			}
			if name != "fig5" {
				sput := series[simulate.MethodSputnik]
				for i := range sput {
					if sput[i].Feasible && sput[i].BatchTime <= sa[i].BatchTime {
						t.Errorf("%s/%s[%d]: Sputnik (%.2fs) beat SAMO (%.2fs)",
							name, model, i, sput[i].BatchTime, sa[i].BatchTime)
					}
				}
			}
		}
	}
}

func TestFigure8SavingsStructure(t *testing.T) {
	var buf bytes.Buffer
	res := Figure8(&buf)
	if len(res) != 3 {
		t.Fatalf("%d GPU counts", len(res))
	}
	d128 := res[128]
	d512 := res[512]
	// At 128 GPUs, p2p is the dominant saving; at 512, bubble+collective.
	p2p128 := d128[0].P2P - d128[1].P2P
	other128 := (d128[0].Bubble - d128[1].Bubble) + (d128[0].Collective - d128[1].Collective)
	if p2p128 <= 0 || p2p128 < other128*0.8 {
		t.Errorf("at 128 GPUs p2p saving %.2fs should lead (others %.2fs)", p2p128, other128)
	}
	p2p512 := d512[0].P2P - d512[1].P2P
	other512 := (d512[0].Bubble - d512[1].Bubble) + (d512[0].Collective - d512[1].Collective)
	if other512 <= p2p512 {
		t.Errorf("at 512 GPUs bubble+collective saving %.2fs should lead p2p %.2fs", other512, p2p512)
	}
}

func TestTable1ListsAllModels(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, name := range []string{"WideResnet-101", "VGG-19", "GPT-3 XL", "GPT-3 2.7B", "GPT-3 6.7B", "GPT-3 13B"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table I missing %s", name)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	var buf bytes.Buffer
	rows := Table2(&buf)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if !(r.SAMO > r.AxoNN && r.AxoNN > r.Sputnik) {
			t.Errorf("row %d: ordering violated: %+v", i, r)
		}
		if i > 0 && r.SAMO >= rows[i-1].SAMO {
			t.Errorf("utilization must fall with scale")
		}
	}
	// SAMO's edge at the largest scale (paper: 31.0 vs 22.9).
	last := rows[len(rows)-1]
	if last.SAMO-last.AxoNN < 4 {
		t.Errorf("SAMO edge at 2048 GPUs too small: %.1f vs %.1f", last.SAMO, last.AxoNN)
	}
}

func TestMemoryReportHeadline(t *testing.T) {
	var buf bytes.Buffer
	MemoryReport(&buf)
	// Abstract: 74% reduction for GPT-3 2.7B, whose embedding tables, biases
	// and norms the engine leaves dense; §III-D's uniform formula gives 78%.
	tail := "GPT-3 2.7B model states: dense 51.79 GB -> SAMO 13.35 GB (74% reduction; " +
		"11.39 GB, 78%, with every parameter pruned as in §III-D)\n" +
		"analytical break-even sparsity: 0.25 (below it SAMO costs memory)\n"
	if !strings.HasSuffix(buf.String(), tail) {
		t.Errorf("report does not end with the headline and break-even lines:\n%s", buf.String())
	}
}

// TestMemoryPlanRows pins the memory plan: one row per Table I job in
// order, and §IV-B's mechanism on GPT-3 2.7B at 512 GPUs — the dense state
// needs Ginter 8 × Gdata 64, SAMO's fits Ginter 2 × Gdata 256.
func TestMemoryPlanRows(t *testing.T) {
	rows := MemoryReport(io.Discard)
	jobs := simulate.StandardJobs()
	if len(rows) != len(jobs) {
		t.Fatalf("%d rows, want %d", len(rows), len(jobs))
	}
	for i, r := range rows {
		if r.Job != jobs[i].Name {
			t.Errorf("row %d is %q, want %q", i, r.Job, jobs[i].Name)
		}
		if !r.DensePlan.Feasible || !r.SAMOPlan.Feasible || r.SAMO >= r.Dense {
			t.Errorf("%s: %+v", r.Job, r)
		}
		if r.SAMOPlan.Ginter > r.DensePlan.Ginter {
			t.Errorf("%s: SAMO Ginter %d above dense %d", r.Job, r.SAMOPlan.Ginter, r.DensePlan.Ginter)
		}
	}
	r := rows[3]
	if r.Job != "GPT-3 2.7B" || r.DensePlan.Ginter != 8 || r.DensePlan.Gdata != 64 ||
		r.SAMOPlan.Ginter != 2 || r.SAMOPlan.Gdata != 256 {
		t.Errorf("2.7B plan: dense Gi=%d Gd=%d, SAMO Gi=%d Gd=%d; want 8x64 and 2x256",
			r.DensePlan.Ginter, r.DensePlan.Gdata, r.SAMOPlan.Ginter, r.SAMOPlan.Gdata)
	}
}

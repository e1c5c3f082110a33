package prune

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/sparse-dl/samo/internal/tensor"
)

func makeLayers(sizes []int, seed uint64) []Layer {
	rng := tensor.NewRNG(seed)
	layers := make([]Layer, len(sizes))
	for i, n := range sizes {
		vals := make([]float32, n)
		for j := range vals {
			vals[j] = float32(rng.Norm())
		}
		layers[i] = Layer{Name: layerName(i), Values: vals}
	}
	return layers
}

func layerName(i int) string { return string(rune('a' + i)) }

func TestMagnitudeGlobalSparsity(t *testing.T) {
	layers := makeLayers([]int{100, 200, 50}, 1)
	r := MagnitudeGlobal(layers, 0.9)
	if got := r.Sparsity(); math.Abs(got-0.9) > 0.01 {
		t.Errorf("global sparsity %g, want 0.9", got)
	}
	if r.TotalParams() != 350 {
		t.Errorf("TotalParams = %d", r.TotalParams())
	}
	if r.KeptParams() != 35 {
		t.Errorf("KeptParams = %d", r.KeptParams())
	}
}

func TestMagnitudeKeepsLargest(t *testing.T) {
	layers := []Layer{{Name: "w", Values: []float32{0.1, -5, 0.2, 3, -0.05}}}
	r := MagnitudePerLayer(layers, 0.6) // prune 3, keep 2
	ids := r.Indices["w"].IDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Errorf("kept %v, want [1 3] (the largest magnitudes)", ids)
	}
}

func TestMagnitudePerLayerUniform(t *testing.T) {
	layers := makeLayers([]int{1000, 500}, 2)
	r := MagnitudePerLayer(layers, 0.9)
	for _, name := range r.Names {
		ix := r.Indices[name]
		got := 1 - float64(ix.NNZ())/float64(ix.FullLen())
		if math.Abs(got-0.9) > 0.01 {
			t.Errorf("layer %s sparsity %g", name, got)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	layers := makeLayers([]int{300}, 3)
	r1 := Random(layers, 0.8, 42)
	r2 := Random(layers, 0.8, 42)
	a, b := r1.Indices["a"].IDs(), r2.Indices["a"].IDs()
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic indices")
		}
	}
	r3 := Random(layers, 0.8, 43)
	same := true
	c := r3.Indices["a"].IDs()
	if len(c) == len(a) {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	} else {
		same = false
	}
	if same {
		t.Error("different seeds produced identical masks")
	}
}

func TestSparsityProperty(t *testing.T) {
	// Achieved sparsity tracks requested sparsity for all algorithms.
	f := func(s8 uint8, seed uint64) bool {
		s := float64(s8%90) / 100
		layers := makeLayers([]int{400, 300}, seed)
		for _, r := range []*Result{
			MagnitudeGlobal(layers, s),
			MagnitudePerLayer(layers, s),
			Random(layers, s, seed),
		} {
			if math.Abs(r.Sparsity()-s) > 0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestZeroSparsityKeepsAll(t *testing.T) {
	layers := makeLayers([]int{64}, 5)
	r := MagnitudeGlobal(layers, 0)
	if r.KeptParams() != 64 {
		t.Errorf("kept %d at sparsity 0", r.KeptParams())
	}
}

func TestInvalidSparsityPanics(t *testing.T) {
	layers := makeLayers([]int{8}, 6)
	for _, s := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("sparsity %g should panic", s)
				}
			}()
			MagnitudeGlobal(layers, s)
		}()
	}
}

func TestEarlyBirdConvergence(t *testing.T) {
	// Simulate training where weights shrink towards a stable ranking: the
	// mask stops changing, and Early-Bird must detect it.
	layers := makeLayers([]int{500}, 7)
	eb := NewEarlyBird(0.9)
	eb.Window = 3
	rng := tensor.NewRNG(8)
	converged := false
	for epoch := 0; epoch < 50; epoch++ {
		// Early epochs: add noise so masks churn. Later: freeze.
		if epoch < 5 {
			for i := range layers[0].Values {
				layers[0].Values[i] += float32(rng.Norm()) * 0.5
			}
		}
		if eb.Observe(layers) {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatal("Early-Bird never converged on a frozen mask")
	}
	if eb.Ticket() == nil {
		t.Fatal("Ticket nil after convergence")
	}
	if got := eb.Ticket().Sparsity(); math.Abs(got-0.9) > 0.01 {
		t.Errorf("ticket sparsity %g", got)
	}
	if eb.epochs < eb.Window {
		t.Errorf("converged after %d epochs, before window filled", eb.epochs)
	}
}

func TestEarlyBirdDoesNotConvergeOnChurn(t *testing.T) {
	// If the mask keeps churning, Early-Bird must not fire.
	layers := makeLayers([]int{400}, 9)
	eb := NewEarlyBird(0.9)
	eb.Window = 3
	rng := tensor.NewRNG(10)
	for epoch := 0; epoch < 10; epoch++ {
		for i := range layers[0].Values {
			layers[0].Values[i] = float32(rng.Norm()) // fully re-randomized
		}
		if eb.Observe(layers) {
			t.Fatalf("converged on churning masks at epoch %d", epoch)
		}
	}
}

func TestEarlyBirdForce(t *testing.T) {
	layers := makeLayers([]int{100}, 11)
	eb := NewEarlyBird(0.8)
	r := eb.Force(layers)
	if r == nil || math.Abs(r.Sparsity()-0.8) > 0.02 {
		t.Error("Force did not produce a ticket")
	}
	// Subsequent Observe is a no-op returning true.
	if !eb.Observe(layers) {
		t.Error("Observe after Force should report converged")
	}
}

func TestEarlyBirdObserveAfterConvergeStable(t *testing.T) {
	layers := makeLayers([]int{200}, 12)
	eb := NewEarlyBird(0.9)
	eb.Window = 2
	for i := 0; i < 5; i++ {
		eb.Observe(layers)
	}
	first := eb.Ticket()
	if first == nil {
		t.Fatal("should have converged on identical params")
	}
	eb.Observe(layers)
	if eb.Ticket() != first {
		t.Error("ticket changed after convergence")
	}
}

// TestMaterializeCSR pins the index→CSR bridge: the materialized matrix
// must hold exactly the surviving values at their (row, col) positions —
// its dense form equals the layer values with pruned entries zeroed — and
// unpruned layer names return nil.
func TestMaterializeCSR(t *testing.T) {
	layers := makeLayers([]int{6 * 4}, 33)
	r := MagnitudePerLayer(layers, 0.5)
	csr := r.MaterializeCSR(layerName(0), layers[0].Values, 6, 4)
	if csr == nil {
		t.Fatal("MaterializeCSR returned nil for a pruned layer")
	}
	ix := r.Index(layerName(0))
	if csr.NNZ() != ix.NNZ() || csr.Rows != 6 || csr.Cols != 4 {
		t.Fatalf("CSR %dx%d nnz=%d, want 6x4 nnz=%d", csr.Rows, csr.Cols, csr.NNZ(), ix.NNZ())
	}
	masked := append([]float32(nil), layers[0].Values...)
	ix.Mask().Apply(masked)
	dense := csr.Dense().Data()
	for i := range masked {
		if dense[i] != masked[i] {
			t.Fatalf("element %d: CSR %g, masked-dense %g", i, dense[i], masked[i])
		}
	}
	if r.MaterializeCSR("no-such-layer", layers[0].Values, 6, 4) != nil {
		t.Error("unknown layer should materialize to nil")
	}
}

package prune

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/sparse-dl/samo/internal/sparse"
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

func TestSparsityProperty(t *testing.T) {
	// Achieved sparsity tracks requested sparsity.
	f := func(s8 uint8, seed uint64) bool {
		s := float64(s8%90) / 100
		layers := makeLayers([]int{400, 300}, seed)
		return math.Abs(MagnitudePerLayer(layers, s).Sparsity()-s) <= 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestZeroSparsityKeepsAll(t *testing.T) {
	layers := makeLayers([]int{64}, 5)
	r := MagnitudePerLayer(layers, 0)
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
			MagnitudePerLayer(layers, s)
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
	if eb.ticket == nil {
		t.Fatal("ticket nil after convergence")
	}
	if got := eb.ticket.Sparsity(); math.Abs(got-0.9) > 0.01 {
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
	first := eb.ticket
	if first == nil {
		t.Fatal("should have converged on identical params")
	}
	eb.Observe(layers)
	if eb.ticket != first {
		t.Error("ticket changed after convergence")
	}
}

// TestMaterializeCSR pins the bridge from a pruning result to executable
// sparse state: sparse.CSRFromIndex over a layer's index is the layer's own
// (rows, cols) view holding exactly the surviving values at their positions —
// its dense form is the layer values with pruned entries zeroed — with the
// nonzeros in the index's id order, and an unpruned layer name has no index.
func TestMaterializeCSR(t *testing.T) {
	layers := makeLayers([]int{6 * 4}, 33)
	r := MagnitudePerLayer(layers, 0.5)
	ix := r.Index(layerName(0))
	if ix == nil {
		t.Fatal("no index for a pruned layer")
	}
	csr := sparse.CSRFromIndex(ix, layers[0].Values, 6, 4)
	if csr.NNZ() != ix.NNZ() || csr.Rows != 6 || csr.Cols != 4 {
		t.Fatalf("CSR %dx%d nnz=%d, want 6x4 nnz=%d", csr.Rows, csr.Cols, csr.NNZ(), ix.NNZ())
	}
	masked := append([]float32(nil), layers[0].Values...)
	ix.Mask().Apply(masked)
	dense := csr.Dense()
	for i := range masked {
		if got := dense.At(i/4, i%4); got != masked[i] {
			t.Fatalf("element %d: CSR %g, masked-dense %g", i, got, masked[i])
		}
	}
	ids := csr.LinearIDs()
	for k, id := range ix.IDs() {
		if ids[k] != id {
			t.Fatalf("nonzero %d holds id %d, index id %d", k, ids[k], id)
		}
	}
	if r.Index("no-such-layer") != nil {
		t.Error("unknown layer should have no index")
	}
}

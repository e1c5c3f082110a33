package sparse

import (
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/autotune"
)

// TestDensityBands pins the band layout the crossover keys on: the
// evaluation's sparsities {0.5, 0.75, 0.9, 0.95, 0.99} must land in
// distinct bands, and degenerate patterns in band 0.
func TestDensityBands(t *testing.T) {
	const full = 10000
	bands := map[float64]uint8{}
	for _, sparsity := range []float64{0, 0.5, 0.75, 0.9, 0.95, 0.99} {
		bands[sparsity] = densityBand(int(float64(full)*(1-sparsity)), full)
	}
	if bands[0] != 0 {
		t.Errorf("fully dense band = %d, want 0", bands[0])
	}
	seen := map[uint8]float64{}
	for sp, b := range bands {
		if prev, dup := seen[b]; dup {
			t.Errorf("sparsities %.2f and %.2f share band %d", prev, sp, b)
		}
		seen[b] = sp
	}
	if densityBand(0, full) != 0 || densityBand(5, 0) != 0 {
		t.Error("degenerate nnz/full should band 0")
	}
}

// TestXoverProbeAndFreeze drives one bucket through the probe phase by
// hand: probes must alternate deterministically between the paths, the
// bucket must freeze on the better minimum after both have their samples,
// and the frozen choice must be returned without further probing.
func TestXoverProbeAndFreeze(t *testing.T) {
	ResetXover()
	defer ResetXover()
	if prev, err := SetXover("auto"); err != nil {
		t.Fatal(err)
	} else {
		defer SetXover(prev)
	}
	var first *XoverEntry
	counts := map[XoverChoice]int{}
	for i := 0; i < 2*autotune.ProbeRuns; i++ {
		e, c, probe := XoverDecide(XoverOpForward, 64, 128, 128, 1638, 128*128)
		if !probe {
			t.Fatalf("call %d: expected a probe while undecided", i)
		}
		if first == nil {
			first = e
		} else if e != first {
			t.Fatal("same shape+density resolved to different buckets")
		}
		counts[c]++
		// Report timings that make the sparse path clearly faster.
		d := time.Millisecond
		if c == XoverDense {
			d = 10 * time.Millisecond
		}
		e.Record(c, d, 64*128*128)
	}
	if counts[XoverSparse] != autotune.ProbeRuns || counts[XoverDense] != autotune.ProbeRuns {
		t.Fatalf("probe alternation uneven: %v", counts)
	}
	if c, ok := first.Decided(); !ok || c != XoverSparse {
		t.Fatalf("bucket not frozen sparse: choice=%v decided=%v", c, ok)
	}
	if _, c, probe := XoverDecide(XoverOpForward, 64, 128, 128, 1638, 128*128); probe || c != XoverSparse {
		t.Fatalf("frozen bucket probed again (choice=%v probe=%v)", c, probe)
	}
	// A different density band is a different bucket, still probing.
	if _, _, probe := XoverDecide(XoverOpForward, 64, 128, 128, 8192, 128*128); !probe {
		t.Fatal("different density band should probe independently")
	}
	// The backward product of the same (square-layer) shape is a different
	// bucket too: its dense fallback is a different kernel.
	if _, _, probe := XoverDecide(XoverOpBackward, 64, 128, 128, 1638, 128*128); !probe {
		t.Fatal("backward op should tune independently of the frozen forward bucket")
	}
}

// TestXoverForce pins the override paths: forced modes bypass the table
// entirely, invalid modes error, and the previous mode round-trips.
func TestXoverForce(t *testing.T) {
	ResetXover()
	defer ResetXover()
	prev, err := SetXover("dense")
	if err != nil {
		t.Fatal(err)
	}
	defer SetXover(prev)
	if e, c, probe := XoverDecide(XoverOpForward, 8, 8, 8, 10, 64); e != nil || probe || c != XoverDense {
		t.Fatalf("forced dense: got entry=%v choice=%v probe=%v", e, c, probe)
	}
	if cur, err := SetXover("sparse"); err != nil || cur != "dense" {
		t.Fatalf("SetXover(sparse): prev=%q err=%v", cur, err)
	}
	if _, c, _ := XoverDecide(XoverOpForward, 8, 8, 8, 10, 64); c != XoverSparse {
		t.Fatal("forced sparse not honored")
	}
	if _, err := SetXover("bogus"); err == nil {
		t.Fatal("invalid mode should error")
	}
	// nnz 0 is decided sparse without a bucket, in auto mode too.
	if _, err := SetXover("auto"); err != nil {
		t.Fatal(err)
	}
	if e, c, probe := XoverDecide(XoverOpForward, 8, 8, 8, 0, 64); e != nil || probe || c != XoverSparse {
		t.Fatal("empty pattern should short-circuit to sparse")
	}
}

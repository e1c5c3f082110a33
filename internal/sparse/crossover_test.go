package sparse

import "testing"

// TestXoverRule pins the crossover as a function of (nnz, full) alone: CSR
// iff 2·nnz ≤ full, the line itself (exactly 50% sparse) CSR, one nonzero
// more dense, the same
// answer for every op and product shape, an immutable entry that reports it,
// and never a probe.
func TestXoverRule(t *testing.T) {
	if prev, err := SetXover("auto"); err != nil {
		t.Fatal(err)
	} else {
		defer SetXover(prev)
	}
	const full = 128 * 128
	for _, tc := range []struct {
		nnz  int
		want XoverChoice
	}{
		{1, XoverSparse},
		{full / 10, XoverSparse},
		{full / 4, XoverSparse},
		{full/2 - 1, XoverSparse},
		{full / 2, XoverSparse},
		{full/2 + 1, XoverDense},
		{full * 3 / 4, XoverDense},
		{full, XoverDense},
	} {
		for _, op := range []XoverOp{XoverOpForward, XoverOpBackward} {
			for _, m := range []int{1, 8, 64, 576} {
				e, c, probe := XoverDecide(op, m, 128, 128, tc.nnz, full)
				if probe || c != tc.want || e == nil {
					t.Fatalf("XoverDecide(op %d, m %d, nnz %d of %d) = (%v, %v, probe %v), want a %v entry and no probe",
						op, m, tc.nnz, full, e, c, probe, tc.want)
				}
				if got, ok := e.Decided(); !ok || got != tc.want {
					t.Fatalf("nnz %d: entry reports (%v, %v), want %v", tc.nnz, got, ok, tc.want)
				}
			}
		}
	}
}

// TestXoverForce pins the override paths: forced modes bypass the rule,
// invalid modes error, and the previous mode round-trips.
func TestXoverForce(t *testing.T) {
	prev, err := SetXover("dense")
	if err != nil {
		t.Fatal(err)
	}
	defer SetXover(prev)
	if prev != "auto" {
		t.Fatalf("initial mode %q, want auto (the zero value)", prev)
	}
	if e, c, probe := XoverDecide(XoverOpForward, 8, 8, 8, 10, 64); e != nil || probe || c != XoverDense {
		t.Fatalf("forced dense: got entry=%v choice=%v probe=%v", e, c, probe)
	}
	if cur, err := SetXover("sparse"); err != nil || cur != "dense" {
		t.Fatalf("SetXover(sparse): prev=%q err=%v", cur, err)
	}
	if _, c, _ := XoverDecide(XoverOpForward, 8, 8, 8, 60, 64); c != XoverSparse {
		t.Fatal("forced sparse not honored")
	}
	if cur, err := SetXover("bogus"); err == nil || cur != "sparse" {
		t.Fatalf("SetXover(bogus): prev=%q err=%v, want an error and the mode untouched", cur, err)
	}
	// nnz 0 is decided sparse without an entry, in auto mode too.
	if cur, err := SetXover("auto"); err != nil || cur != "sparse" {
		t.Fatalf("SetXover(auto): prev=%q err=%v", cur, err)
	}
	if e, c, probe := XoverDecide(XoverOpForward, 8, 8, 8, 0, 64); e != nil || probe || c != XoverSparse {
		t.Fatal("empty pattern should short-circuit to sparse")
	}
}

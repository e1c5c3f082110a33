package sparse

import "testing"

// TestXoverRule pins the crossover as a function of (nnz, full) alone: CSR
// iff 2·nnz ≤ full, the line itself (exactly 50% sparse) CSR, one nonzero
// more dense, the same
// answer for every op and product shape, an immutable entry that reports it,
// and never a probe.
func TestXoverRule(t *testing.T) {
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

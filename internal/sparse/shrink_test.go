package sparse

import (
	"reflect"
	"testing"

	"github.com/sparse-dl/samo/internal/tensor"
)

// shrinkFixture is a 3×4 CSR with a known pattern:
//
//	[ 1 0 2 0 ]
//	[ 0 3 0 4 ]
//	[ 5 0 0 6 ]
func shrinkFixture() *CSR {
	d := tensor.FromSlice([]float32{1, 0, 2, 0, 0, 3, 0, 4, 5, 0, 0, 6}, 3, 4)
	return CSRFromDense(d)
}

func TestCSRShrinkToGolden(t *testing.T) {
	m := shrinkFixture()
	valHead, colHead := &m.Val[0], &m.ColIdx[0]
	// Drop stored positions 1 (value 2) and 4 (value 5).
	m.ShrinkTo([]bool{true, false, true, true, false, true})
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", m.NNZ())
	}
	if got := m.RowPtr; !reflect.DeepEqual(got, []int32{0, 1, 3, 4}) {
		t.Fatalf("RowPtr = %v", got)
	}
	if got := m.ColIdx; !reflect.DeepEqual(got, []int32{0, 1, 3, 3}) {
		t.Fatalf("ColIdx = %v", got)
	}
	if got := m.Val; !reflect.DeepEqual(got, []float32{1, 3, 4, 6}) {
		t.Fatalf("Val = %v", got)
	}
	// In place: the compacted slices still head the original backing arrays.
	if &m.Val[0] != valHead || &m.ColIdx[0] != colHead {
		t.Fatal("ShrinkTo reallocated Val/ColIdx backing arrays")
	}
}

func TestCSRShrinkToLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched keep length did not panic")
		}
	}()
	shrinkFixture().ShrinkTo([]bool{true})
}

func TestTransposePermIntoMatchesFresh(t *testing.T) {
	m := shrinkFixture()
	tr, perm := m.TransposePerm()
	trColHead := &tr.ColIdx[0]
	m.ShrinkTo([]bool{true, false, true, true, false, true})
	perm = m.TransposePermInto(tr, perm)

	want, wantPerm := m.TransposePerm()
	if !reflect.DeepEqual(tr.RowPtr, want.RowPtr) ||
		!reflect.DeepEqual(tr.ColIdx, want.ColIdx) ||
		!reflect.DeepEqual(tr.Val, want.Val) {
		t.Fatalf("refreshed transpose %v/%v/%v differs from fresh %v/%v/%v",
			tr.RowPtr, tr.ColIdx, tr.Val, want.RowPtr, want.ColIdx, want.Val)
	}
	if !reflect.DeepEqual(perm, wantPerm) {
		t.Fatalf("refreshed perm %v differs from fresh %v", perm, wantPerm)
	}
	if &tr.ColIdx[0] != trColHead {
		t.Fatal("TransposePermInto reallocated the transpose's backing arrays")
	}
	// The perm invariant the cached-transpose refresh relies on.
	for p := range tr.Val {
		if tr.Val[p] != m.Val[perm[p]] {
			t.Fatalf("t.Val[%d] != m.Val[perm[%d]]", p, p)
		}
	}
}

func TestCSRShrinkToEmptyThenKernels(t *testing.T) {
	m := shrinkFixture()
	m.ShrinkTo(make([]bool, 6)) // drop everything
	if m.NNZ() != 0 {
		t.Fatalf("NNZ = %d, want 0", m.NNZ())
	}
	if got := m.RowPtr; !reflect.DeepEqual(got, []int32{0, 0, 0, 0}) {
		t.Fatalf("RowPtr = %v", got)
	}

	// Satellite sweep: a fully-pruned pattern must flow through every
	// kernel, writing zeros — not panic or divide by zero.
	bt := tensor.New(5, 4)
	bt.Fill(2)
	ct := tensor.New(5, 3)
	ct.Fill(42)
	m.SpMMTInto(ct, bt)
	for i, v := range ct.Data() {
		if v != 0 {
			t.Fatalf("SpMMTInto on empty pattern: c[%d] = %g, want 0", i, v)
		}
	}

	a := tensor.New(3, 7)
	bb := tensor.New(4, 7)
	m.SDDMMInto(nil, a, bb, false) // len(dstVal) == NNZ == 0

	tr := m.Transpose()
	if tr.NNZ() != 0 || tr.Rows != 4 || tr.Cols != 3 {
		t.Fatalf("empty transpose = %dx%d nnz %d", tr.Rows, tr.Cols, tr.NNZ())
	}
	if ids := m.LinearIDs(); len(ids) != 0 {
		t.Fatalf("LinearIDs on empty pattern = %v", ids)
	}
}

func TestDensityBandAndXoverEmptyPattern(t *testing.T) {
	for _, full := range []int{64, 0} {
		e, c, probe := XoverDecide(XoverOpForward, 8, 8, 8, 0, full)
		if e != nil || c != XoverSparse || probe {
			t.Fatalf("XoverDecide(nnz=0, full=%d) = (%v, %v, %v), want (nil, sparse, false)", full, e, c, probe)
		}
	}
}

func TestIndexCloneIndependence(t *testing.T) {
	base := NewIndex(maskOf(8, 1, 3, 5, 7))
	c := base.Clone()
	if !reflect.DeepEqual(c.IDs(), base.IDs()) || c.FullLen() != base.FullLen() {
		t.Fatal("clone does not match original")
	}
	c.ShrinkTo([]bool{true, false, true, false})
	if got := c.IDs(); !reflect.DeepEqual(got, []int32{1, 5}) {
		t.Fatalf("clone ids after shrink = %v, want [1 5]", got)
	}
	if got := base.IDs(); !reflect.DeepEqual(got, []int32{1, 3, 5, 7}) {
		t.Fatalf("shrinking the clone mutated the original: %v", got)
	}
}

func TestIndexShrinkToInPlace(t *testing.T) {
	ix := NewIndex(maskOf(10, 0, 2, 4, 6, 8))
	head := &ix.IDs()[0]
	ix.ShrinkTo([]bool{false, true, true, false, true})
	if got := ix.IDs(); !reflect.DeepEqual(got, []int32{2, 4, 8}) {
		t.Fatalf("ids = %v, want [2 4 8]", got)
	}
	if ix.FullLen() != 10 {
		t.Fatalf("FullLen changed to %d", ix.FullLen())
	}
	if &ix.IDs()[0] != head {
		t.Fatal("ShrinkTo reallocated the id array")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched keep length did not panic")
		}
	}()
	ix.ShrinkTo([]bool{true})
}

func maskOf(n int, set ...int) *Mask {
	m := NewMask(n)
	for _, i := range set {
		m.Set(i)
	}
	return m
}

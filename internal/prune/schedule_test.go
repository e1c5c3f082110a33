package prune

import (
	"math"
	"reflect"
	"testing"
)

func TestScheduleValidate(t *testing.T) {
	ok := Schedule{Initial: 0.5, Final: 0.9, BeginStep: 10, EndStep: 50, Frequency: 5}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	bad := []Schedule{
		{Initial: -0.1, Final: 0.9, EndStep: 1, Frequency: 1},
		{Initial: 0.5, Final: 1.0, EndStep: 1, Frequency: 1},
		{Initial: 0.9, Final: 0.5, EndStep: 1, Frequency: 1},
		{Initial: 0.5, Final: 0.9, BeginStep: -1, EndStep: 1, Frequency: 1},
		{Initial: 0.5, Final: 0.9, BeginStep: 5, EndStep: 4, Frequency: 1},
		{Initial: 0.5, Final: 0.9, BeginStep: 0, EndStep: 1, Frequency: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schedule %d accepted: %+v", i, s)
		}
	}
}

func TestScheduleCubicRamp(t *testing.T) {
	s := Schedule{Initial: 0.5, Final: 0.9, BeginStep: 100, EndStep: 200, Frequency: 10}
	if got := s.SparsityAt(0); got != 0.5 {
		t.Fatalf("before window: %g, want Initial", got)
	}
	if got := s.SparsityAt(100); got != 0.5 {
		t.Fatalf("at begin: %g, want Initial", got)
	}
	if got := s.SparsityAt(200); got != 0.9 {
		t.Fatalf("at end: %g, want Final", got)
	}
	if got := s.SparsityAt(10_000); got != 0.9 {
		t.Fatalf("after window: %g, want Final", got)
	}
	// Midpoint of the cubic: Final + (Initial-Final)·(1/2)³.
	want := 0.9 + (0.5-0.9)*0.125
	if got := s.SparsityAt(150); math.Abs(got-want) > 1e-12 {
		t.Fatalf("midpoint: %g, want %g", got, want)
	}
	// The ramp is monotone non-decreasing across the window.
	prev := -1.0
	for step := 90; step <= 210; step++ {
		got := s.SparsityAt(step)
		if got < prev {
			t.Fatalf("ramp decreased at step %d: %g < %g", step, got, prev)
		}
		prev = got
	}
}

func TestScheduleEvents(t *testing.T) {
	s := Schedule{Initial: 0.5, Final: 0.9, BeginStep: 10, EndStep: 27, Frequency: 5}
	want := []int{10, 15, 20, 25, 27} // EndStep always included
	if got := s.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Events() = %v, want %v", got, want)
	}
	for step := 0; step < 40; step++ {
		isEvent := false
		for _, e := range want {
			if e == step {
				isEvent = true
			}
		}
		if got := s.IsPruneEvent(step); got != isEvent {
			t.Errorf("IsPruneEvent(%d) = %v, want %v", step, got, isEvent)
		}
	}
}

func TestScheduleOneShotDegenerate(t *testing.T) {
	s := Schedule{Initial: 0.5, Final: 0.9, BeginStep: 7, EndStep: 7, Frequency: 3}
	if err := s.Validate(); err != nil {
		t.Fatalf("degenerate one-shot schedule rejected: %v", err)
	}
	if got := s.Events(); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("Events() = %v, want [7]", got)
	}
	if !s.IsPruneEvent(7) || s.IsPruneEvent(6) || s.IsPruneEvent(8) {
		t.Fatal("one-shot schedule must fire exactly at its step")
	}
	if got := s.SparsityAt(7); got != 0.9 {
		t.Fatalf("one-shot target %g, want Final", got)
	}
}

// TestMaskSmallestTieBreak pins the threshold tie-break: equal magnitudes at
// the cut are pruned in ascending index order — the sort key is the IEEE-754
// magnitude bit pattern packed with the index, never a float comparator.
func TestMaskSmallestTieBreak(t *testing.T) {
	// Five entries tie at |v| = 0.5 (including a -0.5 and a +0.5 pair and a
	// negative zero tying a positive zero below them).
	values := []float32{0.5, 2, -0.5, 0.5, float32(math.Copysign(0, -1)), -0.5, 0, 3}
	m := maskSmallest(values, 4)
	// The two zeros (idx 4, 6) go first; then the 0.5-magnitude tie breaks
	// by index: 0, 2 pruned, 3, 5 kept.
	wantPruned := map[int]bool{4: true, 6: true, 0: true, 2: true}
	for i := range values {
		if got := !m.Get(i); got != wantPruned[i] {
			t.Errorf("index %d pruned=%v, want %v", i, got, wantPruned[i])
		}
	}
}

// TestMaskSmallestNaNKept pins NaN ordering: NaN bit patterns sit above +Inf
// in the magnitude order, so NaN entries are never silently pruned while
// finite weights survive.
func TestMaskSmallestNaNKept(t *testing.T) {
	nan := float32(math.NaN())
	values := []float32{nan, 0.1, 0.2, nan, 0.3, float32(math.Inf(1))}
	m := maskSmallest(values, 3)
	for _, i := range []int{0, 3, 5} {
		if !m.Get(i) {
			t.Errorf("index %d (NaN/Inf) was pruned; must rank above all finite magnitudes", i)
		}
	}
	for _, i := range []int{1, 2, 4} {
		if m.Get(i) {
			t.Errorf("index %d (small finite) survived; want pruned", i)
		}
	}
}

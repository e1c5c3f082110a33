package prune

import "fmt"

// Schedule is Zhu & Gupta's gradual magnitude pruning schedule ("To prune,
// or not to prune", 2017): the target sparsity ramps from Initial to Final
// along a cubic curve over [BeginStep, EndStep], with a prune event every
// Frequency steps. The cubic front-loads pruning while the network still
// has redundancy to absorb it and slows down as the surviving weights
// become load-bearing — the standard recipe for recovering accuracy at
// high sparsity that one-shot pruning loses.
//
// A Schedule is pure arithmetic over the step index: every rank of a
// distributed run evaluates it independently and lands on identical events
// and identical targets, so gradual pruning needs no extra communication.
type Schedule struct {
	// Initial and Final are the sparsity endpoints of the ramp (fraction
	// of prunable weights removed), 0 ≤ Initial ≤ Final < 1. Initial is
	// normally the sparsity of the one-shot pruning the run started from;
	// an event whose target does not exceed the current sparsity prunes
	// nothing.
	Initial, Final float64
	// BeginStep and EndStep bound the ramp in training-step indices
	// (inclusive). EndStep is always a prune event, so Final is reached
	// exactly even when the window is not a multiple of Frequency.
	// BeginStep == EndStep degenerates to one-shot pruning at that step.
	BeginStep, EndStep int
	// Frequency is the step interval between prune events inside the
	// window (≥ 1).
	Frequency int
	// Global ranks all prunable parameters in one magnitude pool instead
	// of pruning each parameter to the target independently. A pruner
	// ranks the parameters of the state it was built over, so a pipeline
	// stage would rank only its own: the parallel engine refuses a global
	// schedule at Ginter > 1.
	Global bool
}

// Validate reports whether the schedule is well-formed. CLI front-ends
// call this on flag values; the training engines call it again so a
// hand-built config cannot smuggle in an invalid ramp.
func (s Schedule) Validate() error {
	if s.Initial < 0 || s.Initial >= 1 {
		return fmt.Errorf("prune: schedule initial sparsity %g out of range [0,1)", s.Initial)
	}
	if s.Final < 0 || s.Final >= 1 {
		return fmt.Errorf("prune: schedule final sparsity %g out of range [0,1)", s.Final)
	}
	if s.Final < s.Initial {
		return fmt.Errorf("prune: schedule final sparsity %g below initial %g (sparsity can only grow)", s.Final, s.Initial)
	}
	if s.BeginStep < 0 {
		return fmt.Errorf("prune: schedule begin step %d negative", s.BeginStep)
	}
	if s.EndStep < s.BeginStep {
		return fmt.Errorf("prune: schedule end step %d before begin step %d", s.EndStep, s.BeginStep)
	}
	if s.Frequency < 1 {
		return fmt.Errorf("prune: schedule frequency %d, must be ≥ 1", s.Frequency)
	}
	return nil
}

// SparsityAt returns the cubic ramp target at step:
//
//	s(t) = Final + (Initial−Final)·(1 − (t−t0)/(te−t0))³
//
// clamped to Initial before BeginStep and Final from EndStep on.
func (s Schedule) SparsityAt(step int) float64 {
	// The Final clamp wins at BeginStep == EndStep: the one-shot degenerate
	// schedule fires its single event at the final sparsity.
	if step >= s.EndStep {
		return s.Final
	}
	if step <= s.BeginStep {
		return s.Initial
	}
	f := 1 - float64(step-s.BeginStep)/float64(s.EndStep-s.BeginStep)
	return s.Final + (s.Initial-s.Final)*f*f*f
}

// IsPruneEvent reports whether step is a prune event: BeginStep-aligned
// multiples of Frequency inside the window, plus EndStep itself.
func (s Schedule) IsPruneEvent(step int) bool {
	if step < s.BeginStep || step > s.EndStep {
		return false
	}
	return step == s.EndStep || (step-s.BeginStep)%s.Frequency == 0
}

// Events lists the prune-event steps in ascending order.
func (s Schedule) Events() []int {
	var out []int
	for t := s.BeginStep; t < s.EndStep; t += s.Frequency {
		out = append(out, t)
	}
	return append(out, s.EndStep)
}

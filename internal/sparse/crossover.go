package sparse

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"github.com/sparse-dl/samo/internal/autotune"
)

// Sparse/dense execution crossover. The sparsity literature's consistent
// finding (Hoefler et al. 2021; the paper's Figure 1) is that sparse kernels
// beat dense ones only above a density-dependent threshold: below it, the
// dense kernel's register blocking and contiguous streaming outweigh the
// flop savings. Which side of the threshold a layer sits on depends on the
// machine, the product shape AND the pattern density, so the decision is
// probed at runtime per (op, shape bucket, density band) and frozen — by
// internal/autotune, the machine this file shares with the GEMM blocking
// tuner in internal/tensor. What stays here is crossover-specific: the two
// choices, the bucket key with its density band, the forced modes and the
// on-disk record.
//
// Unlike the GEMM candidates, the two execution paths are NOT bitwise
// identical (they sum different terms in different orders), so this table
// is built with reprobe period 0: a frozen bucket never re-probes, because
// flipping the winner mid-training would perturb results. The probe phase
// itself is a deterministic alternation (choice by call count, not timing),
// so two runs diverge only after their freezes — and per-path results remain
// bitwise-identical at every worker count.
//
// Frozen decisions persist to the file SAMO_SPARSE_XOVER_TABLE names
// ("off" disables; default sparse_xover.json next to gemm_tune.json), because
// a serving process is the worst-hit consumer of a cold table: every probe
// run on the losing path is a full-latency request. Pre-seeding decisions
// changes numerics relative to a cold run that would have frozen
// differently; that is the point — persistence extends the never-re-probe
// stability across processes, so a trained-then-served model keeps the
// training run's execution paths. Runs that need a machine-independent path
// pin one with SetXover ("sparse"/"dense") or the SAMO_SPARSE_XOVER
// environment variable, which bypasses the table entirely.

// XoverChoice is one execution path of a sparse-or-dense product.
type XoverChoice uint8

const (
	// XoverSparse runs the CSR kernel (SpMMT).
	XoverSparse XoverChoice = iota
	// XoverDense runs the dense GEMM against a masked-dense materialization.
	XoverDense
)

func (c XoverChoice) String() string {
	if c == XoverDense {
		return "dense"
	}
	return "sparse"
}

// XoverOp identifies which product of a sparse layer a decision is for.
// Forward and input-gradient products tune in separate buckets even at
// identical shapes — the same reasoning as the GEMM tuner's variant key:
// their dense fallbacks are different kernels (A·Bᵀ vs A·B) with different
// packing costs, and a square layer would otherwise pool their timings
// into one bucket and freeze a winner that is wrong for one of them.
type XoverOp uint8

const (
	// XoverOpForward is the y = x·Wᵀ product.
	XoverOpForward XoverOp = iota
	// XoverOpBackward is the dx = dy·W product.
	XoverOpBackward
)

// xoverKey buckets a decision by op, ceil-log2 of each product dimension
// and the density band — ceil-log2 of 1/density — so 50%, 75%, 90%, 95%
// and 99% sparse patterns land in distinct bands while shapes within a
// power of two share a decision.
type xoverKey struct {
	op             XoverOp
	mb, kb, nb, db uint8
}

// densityBand returns ceil(log2(full/nnz)) clamped to a byte: band 0 is
// fully dense, each further band halves the density.
func densityBand(nnz, full int) uint8 {
	if nnz <= 0 || full <= nnz {
		return 0
	}
	return autotune.Log2Bucket((full + nnz - 1) / nnz)
}

// XoverEntry is one bucket's probe state: an autotune.Entry whose candidate
// indices are XoverChoices.
type XoverEntry autotune.Entry

// Decided returns the frozen choice, or (_, false) while probing.
func (e *XoverEntry) Decided() (XoverChoice, bool) {
	if c := (*autotune.Entry)(e).Chosen(); c >= 0 {
		return XoverChoice(c), true
	}
	return XoverSparse, false
}

// Record stores one probe timing, normalized by the product's nominal work
// (the dense-equivalent m·k·n — both paths must share a unit), and freezes
// the winner once both paths have autotune.ProbeRuns samples.
func (e *XoverEntry) Record(c XoverChoice, d time.Duration, work int) {
	(*autotune.Entry)(e).Record(int(c), d, work)
}

// xoverRecord is the persisted form of one decided bucket.
type xoverRecord struct {
	Op     uint8  `json:"op"`
	MB     uint8  `json:"mb"`
	KB     uint8  `json:"kb"`
	NB     uint8  `json:"nb"`
	DB     uint8  `json:"db"`
	Choice string `json:"choice"` // "sparse" or "dense"
}

var xoverTable = autotune.New(autotune.Spec[xoverKey, xoverRecord]{
	Env:  "SAMO_SPARSE_XOVER_TABLE",
	File: "sparse_xover.json",
	Description: "SAMO sparse/dense crossover decisions, keyed by (op, ceil-log2 shape, density band). " +
		"Machine-specific; regenerate after hardware changes.",
	Cands:        func(xoverKey) int { return 2 },
	ReprobeEvery: 0,
	Encode: func(k xoverKey, chosen int) xoverRecord {
		return xoverRecord{Op: uint8(k.op), MB: k.mb, KB: k.kb, NB: k.nb, DB: k.db,
			Choice: XoverChoice(chosen).String()}
	},
	// Records with an op or choice this build does not know are skipped.
	Decode: func(r xoverRecord) (xoverKey, int, bool) {
		c, ok := parseXoverChoice(r.Choice)
		return xoverKey{XoverOp(r.Op), r.MB, r.KB, r.NB, r.DB}, int(c), ok && XoverOp(r.Op) <= XoverOpBackward
	},
})

// parseXoverChoice is String's inverse: the one spelling of a path shared by
// SetXover modes, SAMO_SPARSE_XOVER and persisted records.
func parseXoverChoice(s string) (XoverChoice, bool) {
	for _, c := range []XoverChoice{XoverSparse, XoverDense} {
		if s == c.String() {
			return c, true
		}
	}
	return 0, false
}

// xoverForce: -1 probes per bucket (auto); otherwise every decision returns
// the forced XoverChoice.
var xoverForce atomic.Int32

func init() {
	xoverTable.Startup()
	xoverForce.Store(-1)
	if c, ok := parseXoverChoice(os.Getenv("SAMO_SPARSE_XOVER")); ok {
		xoverForce.Store(int32(c))
	}
}

// SetXover pins every crossover decision to "sparse" or "dense", or
// restores per-bucket probing with "auto". It returns the previous mode so
// tests and benchmarks can scope the override. SAMO_SPARSE_XOVER sets the
// initial mode.
func SetXover(mode string) (prev string, err error) {
	prev = "auto"
	if p := xoverForce.Load(); p >= 0 {
		prev = XoverChoice(p).String()
	}
	if c, ok := parseXoverChoice(mode); ok {
		xoverForce.Store(int32(c))
	} else if mode == "auto" {
		xoverForce.Store(-1)
	} else {
		return prev, fmt.Errorf("sparse: SetXover(%q): want auto, sparse or dense", mode)
	}
	return prev, nil
}

// ResetXover clears all frozen decisions (tests and benchmarks re-probing).
func ResetXover() { xoverTable.Reset() }

// SaveXoverTable writes every decided bucket to path as JSON.
func SaveXoverTable(path string) error { return xoverTable.Save(path) }

// LoadXoverTable pre-seeds the crossover from a file written by
// SaveXoverTable: matching buckets skip the probe phase and are frozen to
// the recorded winner.
func LoadXoverTable(path string) error { return xoverTable.Load(path) }

// FlushXoverTable synchronously persists decisions frozen in this process —
// the cmds' exit-path companion to tensor.FlushTuneTable.
func FlushXoverTable() error { return xoverTable.Flush() }

// XoverDecide resolves the execution path for one sparse-vs-dense product
// of shape (m,k,n) whose sparse operand stores nnz of full elements. It
// returns the bucket entry, the path to run NOW, and whether this call is a
// probe the caller must time and report back via entry.Record. A forced
// mode, a degenerate pattern (nnz 0: nothing to multiply densely for) and a
// frozen bucket all return probe=false with a nil entry or the frozen one.
func XoverDecide(op XoverOp, m, k, n, nnz, full int) (e *XoverEntry, c XoverChoice, probe bool) {
	if f := xoverForce.Load(); f >= 0 {
		return nil, XoverChoice(f), false
	}
	if nnz <= 0 {
		return nil, XoverSparse, false
	}
	b := autotune.Log2Bucket
	ae := xoverTable.For(xoverKey{op, b(m), b(k), b(n), densityBand(nnz, full)})
	idx, probe := ae.Next()
	return (*XoverEntry)(ae), XoverChoice(idx), probe
}

package tensor

import "github.com/sparse-dl/samo/internal/autotune"

// GEMM autotuner: a per-shape table of blocking parameters for the shared-
// pack v2 kernel, the client of internal/autotune (which owns the probe →
// freeze → persist machine). This file keeps what is GEMM-specific: the
// candidate blockings, the bucket key and the on-disk record. Buckets are
// keyed by (op variant, ceil-log2(m, k, n)): the forward product and the
// two transposed backward products (MatMulT, TMatMul) tune independently,
// because their packing costs differ even at identical shapes. Training
// reuses the same handful of GEMM shapes every microbatch, so the table
// stays tiny.
//
// Decisions persist to TunePath() — SAMO_GEMM_TUNE if set ("off" disables),
// else <user cache dir>/samo/gemm_tune.json. Loading a stale or foreign
// table is always safe: every candidate is bitwise-identical, so the worst
// case is a suboptimal blocking until drift probes correct it — which is
// also why a frozen bucket may re-probe and flip.

// tuneCand is one candidate blocking: strip=true runs the BLIS-style shared
// panel pipeline — kc×nc panels packed in 8-wide k-major column strips and
// swept by the strip kernel (a strip of C in registers, one C memory
// round-trip per panel); strip=false runs the direct-B micro-kernel (no
// packing), which wins when m is so small that a panel would be swept only
// once and the pack traffic cannot amortize.
type tuneCand struct {
	kc, nc int
	strip  bool
}

// tuneCands are the probe candidates: the direct-B kernel and the strip
// kernel at a narrow (kc·nc·4 = 128 KiB, L2-resident) and a tall blocking
// (taller panels amortize the sweep's C round-trip over more k, wider ones
// cut the j0 passes over A). The plain packed-panel blockings and the mc
// row-blocked one that used to sit beside them went when the strip sweep
// got its vector micro-kernel: on one worker it runs 2–8× every scalar
// kernel from m = 4 up on the benchmark's GPT and MLP shapes, and only
// direct-B still beats it, at m = 1 (level at m = 2). Every kc is even and
// every nc a multiple of 8, which is what keeps all candidates
// bitwise-identical (see gemmV2) and strip panels inside packBufCap.
var tuneCands = [...]tuneCand{
	{kc: 256, nc: 512},
	{kc: 256, nc: 128, strip: true},
	{kc: 512, nc: 256, strip: true},
}

// tuneCandsT are the probe candidates for the transposed variants (gemmNT
// and gemmTN). They mirror tuneCands minus the direct-B entry: the
// transposed products' effective B is never materialized row-major, so
// every candidate packs (the pack IS the transpose). Same invariants: kc
// even, nc a multiple of 8, kc·nc within packBufCap.
var tuneCandsT = [...]tuneCand{
	{kc: 256, nc: 128, strip: true},
	{kc: 512, nc: 256, strip: true},
}

// tuneCandsFor returns the candidate set a variant probes.
func tuneCandsFor(v gemmVariant) []tuneCand {
	if v == gemmNN {
		return tuneCands[:]
	}
	return tuneCandsT[:]
}

// tuneKey buckets a GEMM dispatch by op variant and ceil(log2) of each
// dimension: shapes within a power of two share blocking, which keeps the
// table a few dozen entries for a whole training run while still
// separating the regimes that matter (small-m backward vs large-m forward,
// k or n under one panel). The variant keeps forward and transposed
// products in distinct buckets even at identical (m,k,n).
type tuneKey struct {
	v          uint8
	mb, kb, nb uint8
}

// tuneRecord is the persisted form of one decided bucket. V is the GEMM
// variant (0 forward, 1 MatMulT, 2 TMatMul); it is omitted when zero, so
// tables written before the variant key existed load unchanged as
// forward-product entries. Pack and Strip are one decision now (every packed
// panel is strip-packed) but stay two fields, so a table written when
// they were not resolves exactly: its plain-panel records (pack, no strip)
// match no candidate and are skipped.
type tuneRecord struct {
	V     uint8 `json:"variant,omitempty"`
	MB    uint8 `json:"mb"`
	KB    uint8 `json:"kb"`
	NB    uint8 `json:"nb"`
	KC    int   `json:"kc"`
	NC    int   `json:"nc"`
	Pack  bool  `json:"pack"`
	Strip bool  `json:"strip,omitempty"`
}

var tuneTable = autotune.New(autotune.Spec[tuneKey, tuneRecord]{
	Env:  "SAMO_GEMM_TUNE",
	File: "gemm_tune.json",
	Description: "SAMO GEMM autotuner decisions, keyed by ceil(log2) shape buckets. " +
		"Machine-specific; regenerate after hardware changes.",
	Cands: func(k tuneKey) int { return len(tuneCandsFor(gemmVariant(k.v))) },
	Encode: func(k tuneKey, chosen int) tuneRecord {
		c := tuneCandsFor(gemmVariant(k.v))[chosen]
		return tuneRecord{V: k.v, MB: k.mb, KB: k.kb, NB: k.nb,
			KC: c.kc, NC: c.nc, Pack: c.strip, Strip: c.strip}
	},
	// A record resolves against the CURRENT candidate set: one written by a
	// build with variants this one lacks, or whose blocking is no longer a
	// candidate, is skipped (the set may change between versions).
	Decode: func(r tuneRecord) (tuneKey, int, bool) {
		k := tuneKey{r.V, r.MB, r.KB, r.NB}
		if gemmVariant(r.V) >= gemmVariants || r.Pack != r.Strip {
			return k, 0, false
		}
		for i, c := range tuneCandsFor(gemmVariant(r.V)) {
			if c == (tuneCand{kc: r.KC, nc: r.NC, strip: r.Strip}) {
				return k, i, true
			}
		}
		return k, 0, false
	},
})

func init() { tuneTable.Startup() }

// tuneFor returns the probe state of a (variant, shape) bucket.
func tuneFor(v gemmVariant, m, k, n int) *autotune.Entry {
	b := autotune.Log2Bucket
	return tuneTable.For(tuneKey{uint8(v), b(m), b(k), b(n)})
}

// ResetTuneTable clears all autotuning decisions (tests, and benchmarks
// that want to re-probe on a new machine).
func ResetTuneTable() { tuneTable.Reset() }

// SaveTuneTable writes every decided bucket to path as JSON.
func SaveTuneTable(path string) error { return tuneTable.Save(path) }

// LoadTuneTable pre-seeds the autotuner from a file written by
// SaveTuneTable: matching buckets skip the probe phase.
func LoadTuneTable(path string) error { return tuneTable.Load(path) }

// FlushTuneTable synchronously persists decisions frozen in this process to
// TunePath(); the cmds call it from their run() exits because the
// background saver gives no guarantee for short-lived processes.
func FlushTuneTable() error { return tuneTable.Flush() }

package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"github.com/sparse-dl/samo/internal/fp16"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// InferenceState is the forward-only counterpart of ModelState: it holds a
// model whose weights are fp16-grid dense tensors (or CSR values, for
// SparseLinear layers) and NOTHING else — no gradient accumulators, no θ32
// master weights, no optimizer states, no reduce buffers. Construction
// releases every Param.Grad tensor, so the resident footprint is the θ16
// line of the §III-D ledger alone: 2φ plus any layer-owned sparse pattern
// bytes.
//
// The state is constructed with the same (model, optimizer, mode, pruning)
// identity a training run would use, so Fingerprint matches the ModelState
// that produced a checkpoint and ckpt.Manager.Load accepts training
// checkpoints directly: θ32 is parsed, quantized onto the fp16 grid and
// expanded into the dense weights — the optimizer-state vectors are
// validated and discarded. The model handed in must not be trained
// afterwards (its gradient tensors are gone; Backward would panic).
type InferenceState struct {
	Mode Mode

	model    *nn.Model
	optBytes int // optimizer footprint of the checkpoints this state accepts
	params   []inferParam
	patterns map[*nn.Param]nn.PatternLayer
}

// inferParam mirrors paramState's structural fields without any of its
// storage. The index is this state's private clone: loading a checkpoint
// written after gradual prune events shrinks it in place.
type inferParam struct {
	p          *nn.Param
	ix         *sparse.Index
	compressed bool
}

// NewInferenceState builds a forward-only state over model. opt identifies
// the optimizer of the training runs whose checkpoints this state should
// accept (only its per-parameter state footprint is read; no optimizer is
// retained). mode and pr must match the training configuration exactly as
// for NewModelState: pruning masks are applied to the dense weights and the
// initial parameters are fp16-quantized, so a freshly built inference model
// is bitwise-identical to a freshly built training model before any steps.
func NewInferenceState(model *nn.Model, opt optim.Optimizer, mode Mode, pr *prune.Result) *InferenceState {
	if mode == SAMO && pr == nil {
		panic("core: SAMO mode requires a pruning result")
	}
	s := &InferenceState{
		Mode:     mode,
		model:    model,
		optBytes: opt.StateBytesPerParam(),
		patterns: make(map[*nn.Param]nn.PatternLayer),
	}
	for _, l := range model.Layers {
		if pl, ok := l.(nn.PatternLayer); ok {
			s.patterns[pl.PatternParam()] = pl
		}
	}
	for _, p := range model.Params() {
		ip := inferParam{p: p}
		if pr != nil && nn.Prunable(p) {
			// Private clone: shrink-on-load mutates the index in place, and
			// the pruning result may be shared with other states.
			if shared := pr.Index(p.Name); shared != nil {
				ip.ix = shared.Clone()
			}
		}
		if ip.ix != nil {
			ip.ix.Mask().Apply(p.Value.Data())
		}
		fp16.RoundSlice(p.Value.Data(), p.Value.Data())
		if mode == SAMO && ip.ix != nil {
			ip.compressed = true
		}
		// Forward-only: the gradient accumulator will never be written.
		// Release it so the footprint shrinks from 4φ (Value+Grad fp32
		// slices) to the θ16 line alone.
		p.Grad = nil
		s.params = append(s.params, ip)
	}
	return s
}

// Model returns the managed model.
func (s *InferenceState) Model() *nn.Model { return s.model }

// Memory returns the forward-only ledger: dense θ16 at its logical 2-byte
// width plus layer-owned index structure (SparseLinear CSR patterns). Every
// training-only component — gradients, master weights, optimizer states,
// the down-cast temp copy — is zero by construction.
func (s *InferenceState) Memory() MemoryBreakdown {
	var b MemoryBreakdown
	for _, ip := range s.params {
		b.Theta16 += BytesTheta16 * int64(ip.p.Size())
		b.Index += ip.p.MetaBytes
	}
	return b
}

// Fingerprint hashes the same structural identity as ModelState.Fingerprint
// — mode, optimizer footprint, per-parameter name and full (pre-pruning)
// size — so a training checkpoint's manifest fingerprint matches and
// ckpt.Manager loads it into inference mode with the same up-front refusal
// semantics, at any point of a gradual pruning schedule (patterns are
// validated structurally inside the snapshot, not here).
func (s *InferenceState) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putU64(uint64(s.Mode))
	putU64(uint64(s.optBytes))
	for _, ip := range s.params {
		h.Write([]byte(ip.p.Name))
		putU64(uint64(s.fullSize(ip)))
	}
	return h.Sum64()
}

// fullSize is the dense (pre-pruning) element count of a parameter — the
// pattern layer's full matrix for SparseLinear values, p.Size() otherwise.
func (s *InferenceState) fullSize(ip inferParam) int {
	if pl := s.patterns[ip.p]; pl != nil {
		return pl.PatternFullLen()
	}
	return ip.p.Size()
}

// Save is unsupported: an InferenceState holds no θ32 or optimizer state to
// serialize. It exists so the type satisfies ckpt.State for loading.
func (s *InferenceState) Save(io.Writer) (int64, error) {
	return 0, fmt.Errorf("core: InferenceState is read-only (no θ32/optimizer state to save)")
}

// Load restores the weights from a training checkpoint written by
// ModelState.Save: the full payload is CRC-checked and parsed against this
// state's structure first (transactional, like ModelState.Load), then θ32
// is quantized onto the fp16 grid and expanded into the dense weights.
// Scaler state, step counts and optimizer vectors are validated but
// discarded — inference has no consumer for them.
func (s *InferenceState) Load(r io.Reader) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	// The spec is rebuilt per call: a previous shrink-on-load may have
	// shrunk patterns, and the next checkpoint validates against the
	// current ones.
	spec := snapSpec{mode: s.Mode, wantK: s.optBytes / 4}
	for _, ip := range s.params {
		ps := snapParamSpec{name: ip.p.Name, stored: ip.p.Size(), full: s.fullSize(ip)}
		switch {
		case s.patterns[ip.p] != nil:
			ps.ids = s.patterns[ip.p].PatternIDs()
			ps.patternSized = true
		case ip.compressed:
			ps.stored = ip.ix.NNZ()
			ps.ids = ip.ix.IDs()
			ps.patternSized = true
		case ip.ix != nil:
			ps.ids = ip.ix.IDs()
		}
		spec.params = append(spec.params, ps)
	}
	stg, err := parseSnapshot(raw, &spec)
	if err != nil {
		return err
	}
	// Commit: shrink-on-load where the checkpoint's pattern is a strict
	// subset, then θ32 -> fp16 grid -> dense θ16 (the optimizer down-cast
	// path, without an optimizer).
	for i, ip := range s.params {
		sp := &stg.params[i]
		if k := sp.keep; k != nil {
			switch {
			case s.patterns[ip.p] != nil:
				s.patterns[ip.p].ShrinkPattern(k)
			case ip.compressed:
				ids := ip.ix.IDs()
				dst := ip.p.Value.Data()
				for j, kk := range k {
					if !kk {
						dst[ids[j]] = 0
					}
				}
				ip.ix.ShrinkTo(k)
			default:
				ip.ix.ShrinkTo(k)
			}
		}
		// Pruned coordinates are zero already: masked at construction,
		// zeroed above where the checkpoint's pattern dropped them.
		if ip.compressed {
			fp16.RoundScatter(ip.p.Value.Data(), sp.theta32, ip.ix.IDs())
		} else {
			fp16.RoundSlice(ip.p.Value.Data(), sp.theta32)
		}
	}
	return nil
}

// Inferencer runs steady-state forward passes over an InferenceState with
// activation memory sized to the forward working set: the model executes
// through nn.Model.InferWindowed over two ping-ponged arenas, so an
// activation is reclaimed one layer after it is produced instead of
// surviving to the end of the pass. After warm-up a Forward performs zero
// heap allocations.
//
// An Inferencer is NOT safe for concurrent use (its arenas are not); the
// serving engine gives each batching loop its own.
type Inferencer struct {
	state *InferenceState
	a, b  *tensor.Arena
}

// NewInferencer wraps an InferenceState.
func NewInferencer(st *InferenceState) *Inferencer {
	return &Inferencer{state: st, a: tensor.NewArena(), b: tensor.NewArena()}
}

// Forward runs one forward-only pass. The returned tensor is owned by the
// Inferencer's arenas and is valid only until the next Forward call — copy
// out anything that must survive (the serving engine copies each request's
// rows into its response buffer).
func (inf *Inferencer) Forward(x *tensor.Tensor) *tensor.Tensor {
	return inf.state.model.InferWindowed(inf.a, inf.b, x)
}

// ArenaBytes returns the activation bytes the two arenas retain across
// Forward calls (tensor.Arena.Bytes): one working set per distinct input
// height ever seen.
func (inf *Inferencer) ArenaBytes() int64 { return inf.a.Bytes() + inf.b.Bytes() }

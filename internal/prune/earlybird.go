package prune

import "github.com/sparse-dl/samo/internal/sparse"

// EarlyBird implements the convergence test of You et al.'s "Drawing
// Early-Bird Tickets" (ICLR 2020), the pruning algorithm the paper uses for
// all experiments. The insight: the *mask* induced by magnitude pruning
// stabilizes very early in training, long before the weights converge. The
// algorithm therefore trains normally, recomputes the candidate mask every
// epoch, and stops ("draws the ticket") once the normalized Hamming distance
// between the last Window masks falls below Epsilon.
//
// Usage: call Observe after each epoch with the current parameter values;
// when Converged returns true, Ticket holds the final pruning Result.
type EarlyBird struct {
	// Sparsity is the target pruned fraction (paper: 0.9).
	Sparsity float64
	// Epsilon is the max normalized Hamming distance for convergence
	// (You et al. use 0.1 by default).
	Epsilon float64
	// Window is how many consecutive masks must agree (You et al. use 5).
	Window int
	// PerLayer selects layer-uniform pruning (true, the paper's setting)
	// versus global magnitude.
	PerLayer bool

	history   [][]*sparse.Mask // ring buffer of per-layer masks
	layerName []string
	ticket    *Result
	epochs    int
}

// NewEarlyBird returns an EarlyBird with You et al.'s default hyperparameters
// at the given sparsity.
func NewEarlyBird(sparsity float64) *EarlyBird {
	checkSparsity(sparsity)
	return &EarlyBird{Sparsity: sparsity, Epsilon: 0.1, Window: 5, PerLayer: true}
}

// Observe records the mask induced by the current parameters and reports
// whether the ticket has converged. Once converged, further Observe calls
// are no-ops returning true.
func (eb *EarlyBird) Observe(layers []Layer) bool {
	if eb.ticket != nil {
		return true
	}
	eb.epochs++
	var res *Result
	if eb.PerLayer {
		res = MagnitudePerLayer(layers, eb.Sparsity)
	} else {
		res = MagnitudeGlobal(layers, eb.Sparsity)
	}
	masks := make([]*sparse.Mask, len(layers))
	if eb.layerName == nil {
		for _, l := range layers {
			eb.layerName = append(eb.layerName, l.Name)
		}
	}
	for i, l := range layers {
		masks[i] = res.Indices[l.Name].Mask()
	}
	eb.history = append(eb.history, masks)
	if len(eb.history) > eb.Window {
		eb.history = eb.history[1:]
	}
	if len(eb.history) < eb.Window {
		return false
	}
	// Max pairwise distance between the newest mask and each mask in the
	// window (You et al. compare the last mask against the previous ones).
	newest := eb.history[len(eb.history)-1]
	for _, old := range eb.history[:len(eb.history)-1] {
		if maxLayerDistance(newest, old) > eb.Epsilon {
			return false
		}
	}
	eb.ticket = res
	return true
}

func maxLayerDistance(a, b []*sparse.Mask) float64 {
	var m float64
	for i := range a {
		if d := sparse.HammingDistance(a[i], b[i]); d > m {
			m = d
		}
	}
	return m
}

// Ticket returns the converged pruning result, or nil if not yet converged.
func (eb *EarlyBird) Ticket() *Result { return eb.ticket }

// Force draws the ticket from the given parameters immediately, regardless
// of convergence — the fallback when a training budget expires first.
func (eb *EarlyBird) Force(layers []Layer) *Result {
	if eb.ticket == nil {
		if eb.PerLayer {
			eb.ticket = MagnitudePerLayer(layers, eb.Sparsity)
		} else {
			eb.ticket = MagnitudeGlobal(layers, eb.Sparsity)
		}
	}
	return eb.ticket
}

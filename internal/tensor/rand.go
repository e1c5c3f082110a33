package tensor

import "math"

// RNG is a small, fast, deterministic generator (splitmix64 core) used for
// parameter initialization and synthetic data. Determinism across runs and
// across worker counts matters: the statistical-efficiency experiment
// (Fig. 4) compares two training configurations and must not be confounded
// by init noise.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Norm returns a standard normal variate (Box–Muller; one value per call for
// simplicity — initialization is not a hot path).
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// FillNormal fills t with N(0, std²) values.
func FillNormal(t *Tensor, std float64, rng *RNG) {
	for i := range t.data {
		t.data[i] = float32(rng.Norm() * std)
	}
}

// FillXavier fills t with the Glorot-uniform distribution for a layer with
// the given fan-in and fan-out.
func FillXavier(t *Tensor, fanIn, fanOut int, rng *RNG) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range t.data {
		t.data[i] = float32((2*rng.Float64() - 1) * limit)
	}
}

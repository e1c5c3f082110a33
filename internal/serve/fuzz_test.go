package serve

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/tensor"
)

// fuzzSample builds the sample a FuzzServeInfer input describes: rank
// dims&3 (rank 0 is no tensor at all), dimension i from bits 2+4i..5+4i of
// dims (0 to 15 each), and element j's float32 bits from raw[4j:4j+4]
// little-endian, zero past raw's end.
func fuzzSample(dims uint16, raw []byte) *tensor.Tensor {
	rank := int(dims & 3)
	if rank == 0 {
		return nil
	}
	shape := make([]int, rank)
	for i := range shape {
		shape[i] = int(dims>>(2+4*i)) & 15
	}
	x := tensor.New(shape...)
	for j := range x.Data() {
		var b [4]byte
		if 4*j < len(raw) {
			copy(b[:], raw[4*j:])
		}
		x.Data()[j] = math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
	}
	return x
}

// fuzzDims encodes a rank-2 shape the way fuzzSample decodes it.
func fuzzDims(rows, cols int) uint16 { return uint16(2 | rows<<2 | cols<<6) }

// floatBytes is vals as fuzzSample's raw bytes.
func floatBytes(vals ...float32) []byte {
	raw := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return raw
}

// offlineInfer is m's offline inference forward of x alone, or the value
// it panicked with.
func offlineInfer(m *nn.Model, x *tensor.Tensor) (y []float32, panicked any) {
	defer func() { panicked = recover() }()
	return m.Infer(nil, x).Data(), nil
}

// FuzzServeInfer crosses the serving trust boundary: an arbitrary sample —
// any rank up to three, any dimensions up to 15, any float bits — is the
// first request to a fresh engine over a tiny GPT (gpt) or a tiny MLP.
// Infer must answer with a typed refusal (ErrInvalidSample, the shape
// refusal included, or a *PanicError) or with a response bitwise equal to
// the offline Model.Infer of the sample. Afterwards the engine must serve a
// known-good sample with its offline bits — unless the fuzzed sample was
// served under another shape, which it then fixed: then the known-good
// sample must be refused with ErrInvalidSample.
func FuzzServeInfer(f *testing.F) {
	rng := tensor.NewRNG(59)
	gpt, gptGood := tinyGPT(rng, 2)
	mlp := nn.BuildMLP("fzmlp", []int{8, 12, 3}, rng)
	type target struct {
		m    *nn.Model
		st   *core.InferenceState
		good *tensor.Tensor
		ref  []float32
	}
	var targets [2]target
	for i, m := range []*nn.Model{mlp, gpt} {
		good := normalSamples(rng, 1, 1, 8)[0]
		if m == gpt {
			good = gptGood[0]
		}
		// The state's constructor quantizes the weights in place, so it is
		// built before the offline reference is taken.
		st := newInferenceState(m)
		targets[i] = target{m, st, good, offlineRefs(m, []*tensor.Tensor{good})[0]}
	}

	ids := func(vals ...int) []byte {
		fs := make([]float32, len(vals))
		for i, v := range vals {
			fs[i] = float32(v)
		}
		return floatBytes(fs...)
	}
	f.Add(true, fuzzDims(6, 1), ids(0, 3, 6, 9, 12, 15))                          // served
	f.Add(true, fuzzDims(12, 1), ids(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12))      // two sequences: fixes (12, 1)
	f.Add(true, fuzzDims(3, 1), ids(1, 2, 3))                                     // not a whole sequence: panics
	f.Add(true, fuzzDims(6, 1), ids(0, 1, 20, 2, 3, 4))                           // out of vocab
	f.Add(true, fuzzDims(6, 1), floatBytes(0, 1, float32(math.NaN()), 2.5, 3, 4)) // NaN and a fraction
	f.Add(true, fuzzDims(6, 2), ids(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11))        // two columns
	f.Add(false, fuzzDims(1, 8), floatBytes(0.5, -1, 2, 0, 1e-3, 7, -0.25, 3))    // served
	f.Add(false, fuzzDims(3, 8), floatBytes(1, 2, 3))                             // three rows: fixes (3, 8)
	f.Add(false, fuzzDims(1, 9), floatBytes(1))                                   // too wide: panics
	f.Add(false, fuzzDims(1, 8), floatBytes(1, float32(math.Inf(-1))))            // ±Inf
	f.Add(false, fuzzDims(0, 8), []byte{})                                        // no rows
	f.Add(false, uint16(0), []byte{})                                             // no tensor
	f.Add(false, uint16(3|1<<2|8<<6|1<<10), floatBytes(1, 2, 3, 4, 5, 6, 7, 8))   // rank 3

	f.Fuzz(func(t *testing.T, useGPT bool, dims uint16, raw []byte) {
		tg := targets[0]
		if useGPT {
			tg = targets[1]
		}
		x := fuzzSample(dims, raw)
		e := New(tg.st, Config{MaxBatch: 4})
		defer e.Close()

		y, err := e.Infer(x)
		var pe *PanicError
		switch {
		case err == nil:
			ref, panicked := offlineInfer(tg.m, x)
			if panicked != nil {
				t.Fatalf("served a %v sample the offline forward panics on: %v", x.Shape(), panicked)
			}
			assertBitwise(t, [][]float32{ref}, [][]float32{y.Data()})
		case errors.Is(err, ErrInvalidSample), errors.As(err, &pe):
		default:
			t.Fatalf("sample dims %#x: untyped refusal %v", dims, err)
		}

		// A served sample fixed the engine's sample shape.
		fixedOther := err == nil && !slices.Equal(x.Shape(), tg.good.Shape())
		y, err = e.Infer(tg.good)
		switch {
		case fixedOther:
			if !errors.Is(err, ErrInvalidSample) {
				t.Fatalf("known-good sample after a served %v one: %v, want ErrInvalidSample", x.Shape(), err)
			}
		case err != nil:
			t.Fatalf("known-good sample after sample dims %#x: %v", dims, err)
		default:
			assertBitwise(t, [][]float32{tg.ref}, [][]float32{y.Data()})
		}
	})
}

package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/prune"
)

// FuzzSnapshotLoad hammers Load with truncated, bit-flipped and adversarial
// checkpoint bytes. The contract under test: Load must always return an
// error on bad input — never panic, never OOM on attacker-controlled
// lengths, and never leave the ModelState partially mutated (a recovery
// that resumes from a half-applied checkpoint would silently diverge).
// Every input also loads into an InferenceState of the same identity: the
// two accept or refuse together, a refusal leaves its θ16 bitwise
// unchanged, and after an accepted load both hold the same θ16.
//
// fixCRC lets the fuzzer past the CRC trailer: when true, the trailer is
// recomputed over the (mutated) payload so the deep parsing and structural
// validation paths are exercised, not just the checksum reject.
func FuzzSnapshotLoad(f *testing.F) {
	// Seed corpus: a valid save (both modes), plus targeted corruptions.
	for _, mode := range []Mode{Dense, SAMO} {
		_, ms, _ := buildTestSetup(mode, 0.75, 42)
		trainABatch(ms)
		var buf bytes.Buffer
		if _, err := ms.Save(&buf); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(valid, false)
		f.Add(valid[:len(valid)/2], true) // truncated mid-parameter
		f.Add(valid[:9], true)            // truncated in the header
		flip := append([]byte(nil), valid...)
		flip[len(flip)/3] ^= 0x40 // bit-flip in the payload
		f.Add(flip, false)        // caught by CRC
		f.Add(flip, true)         // CRC "repaired": must fail structurally or load
		// Adversarial: huge name length with a tiny body.
		f.Add(adversarialNameLen(), true)
	}
	f.Add([]byte{}, false)
	f.Add([]byte("SAMO"), true)

	// A valid checkpoint one prune event later: a strict subset of the
	// pattern, so both states shrink on load.
	_, shrunk, _ := buildTestSetup(SAMO, 0.75, 42)
	trainABatch(shrunk)
	gp, err := NewGradualPruner(shrunk, prune.Schedule{Initial: 0.75, Final: 0.9, Frequency: 1})
	if err != nil || !gp.MaybePrune(0) {
		f.Fatalf("one-shot prune event did not shrink: %v", err)
	}
	f.Add(saveBytes(f, shrunk), false)

	_, ms, _ := buildTestSetup(SAMO, 0.75, 42)
	trainABatch(ms)
	before := saveBytes(f, ms)
	im, is := buildInferSetup(SAMO, 0.75, 42)
	before16 := theta16(im)

	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC && len(data) >= 4 {
			payload := data[:len(data)-4]
			fixed := make([]byte, len(data))
			copy(fixed, payload)
			binary.LittleEndian.PutUint32(fixed[len(payload):], crc32.ChecksumIEEE(payload))
			data = fixed
		}
		err := ms.Load(data)
		ierr := is.Load(data)
		if (err == nil) != (ierr == nil) {
			t.Fatalf("ModelState.Load: %v; InferenceState.Load: %v", err, ierr)
		}
		after, after16 := saveBytes(t, ms), theta16(im)
		if err != nil {
			// Failed loads must leave the state bitwise untouched.
			if !bytes.Equal(before, after) {
				t.Fatal("Load returned an error but mutated the state")
			}
			if !bytes.Equal(before16, after16) {
				t.Fatal("InferenceState.Load returned an error but mutated θ16")
			}
			return
		}
		// A successful load of fuzzer bytes is only acceptable when those
		// bytes round-trip: the state must now serialize to exactly what was
		// loaded (the input was a genuine checkpoint for this structure).
		if !bytes.Equal(data, after) {
			t.Fatal("Load accepted bytes that do not round-trip through Save")
		}
		if !bytes.Equal(theta16(ms.Model()), after16) {
			t.Fatal("the two states expanded the same checkpoint into different θ16")
		}
		before, before16 = after, after16
	})
}

// theta16 concatenates the bits of every parameter value of m.
func theta16(m *nn.Model) []byte {
	var b []byte
	for _, p := range m.Params() {
		b = append(b, f32bytes(p.Value.Data())...)
	}
	return b
}

func trainABatch(ms *ModelState) {
	x, targets := makeBatch(8, 8, 4, 300)
	tr := NewTrainer(ms)
	tr.TrainStep(x, targets)
}

func saveBytes(t interface{ Fatal(...any) }, ms *ModelState) []byte {
	var buf bytes.Buffer
	if _, err := ms.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// adversarialNameLen builds a header-valid checkpoint whose first parameter
// name claims to be enormous — the classic length-prefix attack.
func adversarialNameLen() []byte {
	var b bytes.Buffer
	put := func(v any) { binary.Write(&b, binary.LittleEndian, v) }
	put(uint32(snapMagic))
	put(uint32(snapVersion))
	put(uint32(SAMO))
	put(float64(1024))      // scale
	put(uint32(0))          // good
	put(uint32(0))          // skipped (scaler)
	put(uint32(1))          // steps
	put(uint32(0))          // skipped
	put(uint32(6))          // param count (matches test MLP)
	put(uint32(0xFFFFFFF0)) // first parameter's name length
	put(uint32(0))          // CRC placeholder, recomputed by fixCRC
	return b.Bytes()
}

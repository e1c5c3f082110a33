package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// Checkpointing. A SAMO checkpoint stores exactly what the GPU stores:
// compressed θ32, compressed optimizer states and the loss-scaler state —
// so checkpoints shrink with the same (24p−6)φ arithmetic as resident
// memory. Dense θ16 is NOT stored: it is reconstructed by expansion on
// load, the same operation the optimizer's down-cast step performs.
//
// Format (little-endian): magic, version, mode, scaler state, step counts,
// then per parameter: name, pattern block, stored length, θ32 values, K
// optimizer-state vectors. A CRC-32 of the payload guards against
// truncation.
//
// The pattern block (version 2) serializes the stored pattern of every
// pruned or pattern-bearing parameter: a flag byte (0 = dense, 1 =
// pattern) and, when present, the ascending linearized dense-view ids. A
// run with a gradual pruning schedule shrinks patterns mid-run, so the
// initial pruning result no longer describes checkpoints written after an
// event; the checkpoint itself must carry its pattern. On load the stored
// pattern must be a SUBSET of the state's current pattern — equal resumes
// directly, a strict subset shrinks the state in place first
// (shrink-on-load), anything else is refused: checkpoints load only into
// matching patterns.

const (
	snapMagic   = 0x53414D4F // "SAMO"
	snapVersion = 2
)

// Save writes the model state to w. It returns the number of payload bytes
// written (the checkpoint size, for compression accounting).
func (ms *ModelState) Save(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w, crc: crc32.NewIEEE()}
	bw := bufio.NewWriter(cw)

	put := func(v any) error { return binary.Write(bw, binary.LittleEndian, v) }
	if err := put(uint32(snapMagic)); err != nil {
		return 0, err
	}
	must := func(errs ...error) error {
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		return nil
	}
	scale, good, skipped := ms.Scaler.Snapshot()
	if err := must(
		put(uint32(snapVersion)),
		put(uint32(ms.Mode)),
		put(scale),
		put(uint32(good)),
		put(uint32(skipped)),
		put(uint32(ms.steps)),
		put(uint32(ms.skipped)),
		put(uint32(len(ms.states))),
	); err != nil {
		return 0, err
	}
	for _, st := range ms.states {
		if err := putString(bw, st.p.Name); err != nil {
			return 0, err
		}
		if err := putPattern(bw, st.ids()); err != nil {
			return 0, err
		}
		if err := must(
			put(uint32(len(st.theta32))),
			put(uint32(ms.opt.StepCount(st.p.Name))),
		); err != nil {
			return 0, err
		}
		if err := putFloats(bw, st.theta32); err != nil {
			return 0, err
		}
		opt := ms.opt.States(st.p.Name)
		if opt == nil {
			// No step applied yet (every one so far overflowed): the
			// optimizer holds no vectors. Write the zero ones Load primes in
			// their place, so the checkpoint carries the footprint
			// parseSnapshot demands and loads like any other.
			zero := make([]float32, len(st.theta32))
			opt = make([][]float32, ms.opt.StateBytesPerParam()/4)
			for k := range opt {
				opt[k] = zero
			}
		}
		if err := put(uint32(len(opt))); err != nil {
			return 0, err
		}
		for _, vec := range opt {
			if len(vec) != len(st.theta32) {
				return 0, fmt.Errorf("core: optimizer state length %d != %d for %s",
					len(vec), len(st.theta32), st.p.Name)
			}
			if err := putFloats(bw, vec); err != nil {
				return 0, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	// Trailer: CRC of everything written so far.
	if err := binary.Write(cw.w, binary.LittleEndian, cw.crc.Sum32()); err != nil {
		return 0, err
	}
	return cw.n + 4, nil
}

// snapStaging holds a fully parsed and validated checkpoint before any of
// it touches live state. Load is transactional: it parses the whole payload
// into a staging area first, so an error at any byte leaves the ModelState
// exactly as it was — a half-applied checkpoint is worse than none, because
// recovery would then resume from a state no run ever produced.
type snapStaging struct {
	scale         float64
	scalerGood    int
	scalerSkipped int
	steps         int
	skipped       int
	params        []snapParam
}

type snapParam struct {
	stepCount int
	theta32   []float32
	opt       [][]float32
	// keep, when non-nil, maps the checkpoint's strict-subset pattern onto
	// the state's current pattern: the state must shrink to the kept
	// positions before the staged vectors fit (shrink-on-load).
	keep []bool
}

// Load restores a checkpoint written by Save into a structurally matching
// ModelState (same model, same mode, same pruning result, same optimizer
// type). Dense θ16 is reconstructed by expanding the restored θ32. The whole
// checkpoint raw has its CRC trailer verified and is parsed in full before
// any state is touched (checkpoints are small by construction — that is the
// point): on error the ModelState is bitwise unchanged. raw is only read.
func (ms *ModelState) Load(raw []byte) error {
	stg, err := parseSnapshot(raw, ms.Mode, ms.opt.StateBytesPerParam(), ms.shapes)
	if err != nil {
		return err
	}

	// --- Commit: nothing below can fail. ---

	// Shrink-on-load: when the checkpoint's pattern is a strict subset of
	// the current one (it was written after later prune events), shrink the
	// live state to it first so the staged vectors fit exactly.
	var ops []shrinkOp
	for i, st := range ms.states {
		if k := stg.params[i].keep; k != nil {
			ops = append(ops, shrinkOp{st: st, keep: k})
		}
	}
	if len(ops) > 0 {
		ms.applyShrinks(ops)
	}

	// Drop any captured gradient, then prime optimizer state vectors if
	// absent (fresh state): a step over the cleared ∇θ16 allocates them.
	// Everything it writes — moments, step count and θ32 — is overwritten
	// below.
	for _, st := range ms.states {
		clear(st.grad16)
		if ms.opt.States(st.p.Name) == nil {
			ms.opt.Step(st.p.Name, st.theta32, st.grad16)
		}
	}
	for i, st := range ms.states {
		sp := &stg.params[i]
		ms.opt.SetStepCount(st.p.Name, sp.stepCount)
		copy(st.theta32, sp.theta32)
		for k, vec := range ms.opt.States(st.p.Name) {
			copy(vec, sp.opt[k])
		}
		// Rebuild dense θ16 from the restored master weights (§III-C's
		// down-cast path).
		st.expand(st.theta32, nil)
	}
	ms.Scaler.Restore(stg.scale, stg.scalerGood, stg.scalerSkipped)
	ms.steps = stg.steps
	ms.skipped = stg.skipped
	return nil
}

// parseSnapshot validates raw against a state's structure — its mode, the
// optimizer footprint it accepts, and per parameter the shape's name, current
// pattern and stored length, in order — and returns the staged contents
// without touching any live state. ModelState and InferenceState share it,
// so training and forward-only loads accept exactly the same bytes.
func parseSnapshot(raw []byte, stateMode Mode, optBytes int, shapes []*shape) (*snapStaging, error) {
	// Optimizer vectors per parameter, derived from the optimizer type
	// rather than States() (which is nil until primed): 4 bytes per float.
	wantK := optBytes / 4
	if len(raw) < 8 {
		return nil, fmt.Errorf("core: checkpoint truncated (%d bytes)", len(raw))
	}
	payload := raw[:len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("core: checkpoint CRC mismatch (corrupt or truncated)")
	}
	br := bytes.NewReader(payload)
	get := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	var magic, version, mode, n uint32
	var scalerGood, scalerSkipped, steps, skipped uint32
	var scale float64
	if err := get(&magic); err != nil {
		return nil, err
	}
	if magic != snapMagic {
		return nil, fmt.Errorf("core: not a SAMO checkpoint (magic %#x)", magic)
	}
	if err := get(&version); err != nil {
		return nil, err
	}
	if version != snapVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d", version)
	}
	if err := get(&mode); err != nil {
		return nil, err
	}
	if Mode(mode) != stateMode {
		return nil, fmt.Errorf("core: checkpoint mode %v does not match state mode %v", Mode(mode), stateMode)
	}
	for _, v := range []any{&scale, &scalerGood, &scalerSkipped, &steps, &skipped, &n} {
		if err := get(v); err != nil {
			return nil, err
		}
	}
	if int(n) != len(shapes) {
		return nil, fmt.Errorf("core: checkpoint has %d parameters, state has %d", n, len(shapes))
	}

	stg := &snapStaging{
		scale:         scale,
		scalerGood:    int(scalerGood),
		scalerSkipped: int(scalerSkipped),
		steps:         int(steps),
		skipped:       int(skipped),
		params:        make([]snapParam, len(shapes)),
	}
	for i, sh := range shapes {
		name, err := getString(br)
		if err != nil {
			return nil, err
		}
		if name != sh.p.Name {
			return nil, fmt.Errorf("core: checkpoint parameter %q does not match %q (order must be identical)", name, sh.p.Name)
		}
		sp := &stg.params[i]
		var flag uint8
		if err := get(&flag); err != nil {
			return nil, err
		}
		if flag > 1 {
			return nil, fmt.Errorf("core: %s has invalid pattern flag %d", name, flag)
		}
		ids := sh.ids() // nil: no pattern block in the checkpoint
		if (flag == 1) != (ids != nil) {
			return nil, fmt.Errorf("core: %s pattern presence mismatch (checkpoint %v, state %v)",
				name, flag == 1, ids != nil)
		}
		expect := sh.stored()
		if flag == 1 {
			var cnt uint32
			if err := get(&cnt); err != nil {
				return nil, err
			}
			if int(cnt) > len(ids) {
				return nil, fmt.Errorf("core: %s checkpoint pattern has %d ids, current pattern only %d — checkpoints load only into matching patterns",
					name, cnt, len(ids))
			}
			stored := make([]int32, cnt)
			if err := getInts(br, stored); err != nil {
				return nil, err
			}
			keep, err := subsetKeep(ids, stored)
			if err != nil {
				return nil, fmt.Errorf("core: %s %w — checkpoints load only into matching patterns", name, err)
			}
			sp.keep = keep
			// A subset checkpoint carries shorter pattern-sized vectors;
			// masked-dense ones stay full-length under any pattern.
			if sh.patternSized() {
				expect = int(cnt)
			}
		}
		var ln, stepCount uint32
		if err := get(&ln); err != nil {
			return nil, err
		}
		if err := get(&stepCount); err != nil {
			return nil, err
		}
		if int(ln) != expect {
			return nil, fmt.Errorf("core: %s stored length %d != %d", name, ln, expect)
		}
		sp.stepCount = int(stepCount)
		sp.theta32 = make([]float32, ln)
		if err := getFloats(br, sp.theta32); err != nil {
			return nil, err
		}
		var k uint32
		if err := get(&k); err != nil {
			return nil, err
		}
		if int(k) != wantK {
			return nil, fmt.Errorf("core: %s has %d optimizer vectors, checkpoint %d", name, wantK, k)
		}
		sp.opt = make([][]float32, k)
		for j := range sp.opt {
			sp.opt[j] = make([]float32, ln)
			if err := getFloats(br, sp.opt[j]); err != nil {
				return nil, err
			}
		}
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes in checkpoint payload", br.Len())
	}
	return stg, nil
}

// putPattern writes one parameter's pattern block: absent (flag 0) or the
// ascending linearized ids of the stored pattern (flag 1).
func putPattern(w io.Writer, ids []int32) error {
	if ids == nil {
		return binary.Write(w, binary.LittleEndian, uint8(0))
	}
	if err := binary.Write(w, binary.LittleEndian, uint8(1)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ids))); err != nil {
		return err
	}
	return putInts(w, ids)
}

// subsetKeep maps a checkpoint's stored pattern onto the current one:
// keep[i] reports whether current id i survives in stored. A nil keep
// means the patterns are identical. Both inputs are ascending and unique
// (current by construction; a stored sequence that is not collapses to
// "not a subset" here), so one two-pointer merge is both the subset test
// and the mask build.
func subsetKeep(current, stored []int32) ([]bool, error) {
	if len(stored) == len(current) {
		for i := range stored {
			if stored[i] != current[i] {
				return nil, fmt.Errorf("checkpoint pattern is not a subset of the current pattern")
			}
		}
		return nil, nil
	}
	keep := make([]bool, len(current))
	j := 0
	for i := 0; i < len(current) && j < len(stored); i++ {
		if current[i] == stored[j] {
			keep[i] = true
			j++
		}
	}
	if j != len(stored) {
		return nil, fmt.Errorf("checkpoint pattern is not a subset of the current pattern")
	}
	return keep, nil
}

func putString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func getString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("core: implausible name length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func putFloats(w io.Writer, s []float32) error {
	buf := make([]byte, 4*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	_, err := w.Write(buf)
	return err
}

func getFloats(r io.Reader, s []float32) error {
	buf := make([]byte, 4*len(s))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range s {
		s[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return nil
}

func putInts(w io.Writer, s []int32) error {
	buf := make([]byte, 4*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	_, err := w.Write(buf)
	return err
}

func getInts(r io.Reader, s []int32) error {
	buf := make([]byte, 4*len(s))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range s {
		s[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return nil
}

type countingWriter struct {
	w   io.Writer
	n   int64
	crc hash.Hash32
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.crc.Write(p[:n])
	return n, err
}

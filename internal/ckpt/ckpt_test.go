package ckpt

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeState is a minimal State: Save emits its payload, Load replaces it.
type fakeState struct {
	payload []byte
	fp      uint64
}

func (s *fakeState) Save(w io.Writer) (int64, error) {
	n, err := w.Write(s.payload)
	return int64(n), err
}

func (s *fakeState) Load(raw []byte) error {
	s.payload = raw
	return nil
}

func (s *fakeState) Fingerprint() uint64 { return s.fp }

func newMgr(t *testing.T, shards, keep int) *Manager {
	t.Helper()
	m, err := New(Options{Dir: t.TempDir(), Shards: shards, Keep: keep, Tag: "test-cfg"})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func payload(step, shard int) []byte {
	return []byte(fmt.Sprintf("state step=%d shard=%d padded-to-make-it-nontrivial", step, shard))
}

func saveStep(t *testing.T, m *Manager, step, shards int) {
	t.Helper()
	for s := 0; s < shards; s++ {
		if err := m.Save(step, s, &fakeState{payload: payload(step, s), fp: uint64(s)}); err != nil {
			t.Fatalf("save step %d shard %d: %v", step, s, err)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := newMgr(t, 2, 2)
	saveStep(t, m, 3, 2)
	step, warns, ok := m.LatestStep()
	if !ok || step != 3 || len(warns) != 0 {
		t.Fatalf("LatestStep = %d, %v, %v; want 3, none, true", step, warns, ok)
	}
	for s := 0; s < 2; s++ {
		st := &fakeState{fp: uint64(s)}
		if err := m.Load(3, s, st); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.payload, payload(3, s)) {
			t.Fatalf("shard %d round-trip mismatch: %q", s, st.payload)
		}
	}
}

func TestNoCheckpointYet(t *testing.T) {
	m := newMgr(t, 1, 2)
	if _, _, ok := m.LatestStep(); ok {
		t.Fatal("empty directory reported a checkpoint")
	}
}

func TestCorruptLatestFallsBackWithWarning(t *testing.T) {
	m := newMgr(t, 2, 3)
	saveStep(t, m, 1, 2)
	saveStep(t, m, 2, 2)
	// Bit-flip the newest step's shard-0 data file.
	path := filepath.Join(m.opts.Dir, m.dataName(2, 0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	step, warns, ok := m.LatestStep()
	if !ok || step != 1 {
		t.Fatalf("corrupt latest: LatestStep = %d, ok=%v; want fallback to 1", step, ok)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "step 2") {
		t.Fatalf("fallback must surface a warning naming step 2, got %v", warns)
	}
	// Load itself refuses the flipped shard before the state sees it.
	st := &fakeState{fp: 0}
	if err := m.Load(2, 0, st); err == nil || !strings.Contains(err.Error(), "CRC") || st.payload != nil {
		t.Fatalf("Load of the corrupt shard: %v, payload %q; want a CRC refusal", err, st.payload)
	}
}

func TestKillPointTruncationAlwaysLeavesLoadable(t *testing.T) {
	// Simulate a crash at every truncation point of the newest data file:
	// whatever survives, LatestStep must hand back a verified step (the
	// truncated one only if it still checks out — i.e. never).
	m := newMgr(t, 1, 3)
	saveStep(t, m, 1, 1)
	saveStep(t, m, 2, 1)
	path := filepath.Join(m.opts.Dir, m.dataName(2, 0))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut += 7 {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		step, _, ok := m.LatestStep()
		if !ok {
			t.Fatalf("cut=%d: no loadable checkpoint at all", cut)
		}
		if step != 1 {
			t.Fatalf("cut=%d: truncated step %d passed verification", cut, step)
		}
		st := &fakeState{fp: 0}
		if err := m.Load(2, 0, st); err == nil || st.payload != nil {
			t.Fatalf("cut=%d: Load of the truncated shard: %v, payload %q; want a refusal", cut, err, st.payload)
		}
		if err := m.Load(step, 0, st); err != nil {
			t.Fatalf("cut=%d: loading fallback: %v", cut, err)
		}
		if !bytes.Equal(st.payload, payload(1, 0)) {
			t.Fatalf("cut=%d: fallback payload mismatch", cut)
		}
	}
	// Restore the file: full bytes verify again and step 2 returns.
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if step, _, ok := m.LatestStep(); !ok || step != 2 {
		t.Fatalf("restored file: LatestStep = %d, ok=%v; want 2", step, ok)
	}
}

func TestIncompleteStepIgnored(t *testing.T) {
	m := newMgr(t, 2, 2)
	saveStep(t, m, 1, 2)
	// Step 2 saved on shard 0 only: the crash window between shard saves.
	if err := m.Save(2, 0, &fakeState{payload: payload(2, 0), fp: 0}); err != nil {
		t.Fatal(err)
	}
	step, warns, ok := m.LatestStep()
	if !ok || step != 1 {
		t.Fatalf("incomplete step: LatestStep = %d, ok=%v; want 1", step, ok)
	}
	if len(warns) != 1 {
		t.Fatalf("incomplete step must warn, got %v", warns)
	}
}

func TestCorruptManifestSkipped(t *testing.T) {
	m := newMgr(t, 1, 2)
	saveStep(t, m, 1, 1)
	saveStep(t, m, 2, 1)
	path := filepath.Join(m.opts.Dir, m.manifestName(2, 0))
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	step, warns, ok := m.LatestStep()
	if !ok || step != 1 || len(warns) != 1 {
		t.Fatalf("corrupt manifest: LatestStep = %d, %v, %v; want 1 with warning", step, warns, ok)
	}
}

func TestLoadRefusesFingerprintMismatch(t *testing.T) {
	m := newMgr(t, 1, 2)
	if err := m.Save(1, 0, &fakeState{payload: payload(1, 0), fp: 0xAAAA}); err != nil {
		t.Fatal(err)
	}
	err := m.Load(1, 0, &fakeState{fp: 0xBBBB})
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("fingerprint mismatch must refuse load, got %v", err)
	}
}

func TestLoadRefusesTagMismatch(t *testing.T) {
	m := newMgr(t, 1, 2)
	saveStep(t, m, 1, 1)
	other, err := New(Options{Dir: m.opts.Dir, Shards: 1, Keep: 2, Tag: "different-cfg"})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Load(1, 0, &fakeState{fp: 0}); err == nil || !strings.Contains(err.Error(), "tag") {
		t.Fatalf("tag mismatch must refuse load, got %v", err)
	}
	if _, _, ok := other.LatestStep(); ok {
		t.Fatal("tag mismatch must hide the checkpoint from LatestStep")
	}
}

func TestPruneRetention(t *testing.T) {
	m := newMgr(t, 2, 2)
	for step := 1; step <= 5; step++ {
		saveStep(t, m, step, 2)
	}
	// Temp debris from an interrupted save must also be cleared.
	debris := filepath.Join(m.opts.Dir, "ckpt-0000000099-s000.samo.tmp-123")
	if err := os.WriteFile(debris, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Prune(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(m.opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	// 2 steps × 2 shards × (data + manifest) = 8 files.
	if len(ents) != 8 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("after prune: %d files %v, want 8", len(ents), names)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatal("prune left temp debris behind")
	}
	step, _, ok := m.LatestStep()
	if !ok || step != 5 {
		t.Fatalf("after prune: LatestStep = %d, ok=%v; want 5", step, ok)
	}
	if err := m.Load(4, 0, &fakeState{fp: 0}); err != nil {
		t.Fatalf("second-newest step must survive prune: %v", err)
	}
	if err := m.Load(3, 0, &fakeState{fp: 0}); err == nil {
		t.Fatal("pruned step still loadable")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{Dir: "", Shards: 1}); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := New(Options{Dir: t.TempDir(), Shards: 0}); err == nil {
		t.Fatal("zero shards accepted")
	}
	m, err := New(Options{Dir: t.TempDir(), Shards: 1, Keep: 0})
	if err != nil {
		t.Fatal(err)
	}
	if m.opts.Keep != 2 {
		t.Fatalf("Keep clamped to %d, want 2", m.opts.Keep)
	}
	if err := m.Save(1, 5, &fakeState{}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

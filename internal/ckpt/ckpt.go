// Package ckpt is the crash-consistent checkpoint manager: it wraps a
// snapshot-able training state (core.ModelState) with the durability
// discipline a fault-tolerant runtime needs and the snapshot format itself
// deliberately does not provide.
//
// Layout: one directory holds, per (step, shard), a data file
// ckpt-<step>-s<shard>.samo (the core snapshot bytes) and a sibling JSON
// manifest ckpt-<step>-s<shard>.json recording step, shard count, a
// caller-supplied tag, the state's structural fingerprint, and the byte
// length + CRC-32 of the data file. Shards exist because the axonn engine
// partitions the model across pipeline stages: shard s is stage s's slice of
// the model, and a step is durable only when EVERY shard of that step
// verifies.
//
// Durability discipline, in order: data to a temp file, fsync, rename;
// manifest to a temp file, fsync, rename; fsync the directory; then re-open
// the renamed data file and verify its CRC against the manifest (read-back:
// a checkpoint is not "saved" until the bytes that will be read at recovery
// have been read once). A crash at any point leaves either a complete
// (step, shard) pair or ignorable temp debris — never a manifest pointing at
// bytes that were not fully written. LatestStep re-verifies on the read
// side and falls back to the newest older step that checks out, surfacing a
// warning for everything it skipped, so a corrupt latest checkpoint degrades
// the resume point instead of wedging recovery.
package ckpt

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// State is what the manager checkpoints: core.ModelState satisfies it.
// Load receives the data file's bytes, already checked against the
// manifest's length and CRC.
type State interface {
	Save(w io.Writer) (int64, error)
	Load(raw []byte) error
	Fingerprint() uint64
}

// manifestVersion guards the manifest schema, independent of the snapshot
// format version inside the data file.
const manifestVersion = 1

// Manifest is the JSON sidecar that makes a data file trustworthy.
type Manifest struct {
	Version     int    `json:"version"`
	Step        int    `json:"step"`
	Shard       int    `json:"shard"`
	Shards      int    `json:"shards"`
	Tag         string `json:"tag"`
	Fingerprint uint64 `json:"fingerprint"`
	Bytes       int64  `json:"bytes"`
	CRC         uint32 `json:"crc32"`
	File        string `json:"file"`
}

// Options configures a Manager.
type Options struct {
	// Dir holds the checkpoint files; created if absent.
	Dir string
	// Shards is the number of model shards per step (axonn: Ginter stages).
	// Every shard in [0,Shards) must be saved for a step to count.
	Shards int
	// Keep retains the newest Keep complete steps at Prune time (minimum 2:
	// latest plus the fallback the corrupt-latest path depends on).
	Keep int
	// Tag names the training configuration (model/parallelism identity).
	// Load refuses a checkpoint whose tag differs — same spirit as the
	// fingerprint, but human-readable and covering engine-level config the
	// state cannot see.
	Tag string
}

// Manager reads and writes checkpoints in one directory. Safe for
// concurrent use by multiple shard-saving goroutines.
type Manager struct {
	opts Options
	mu   sync.Mutex
}

// New validates opts, creates the directory, and returns a Manager.
func New(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("ckpt: empty directory")
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("ckpt: shards %d < 1", opts.Shards)
	}
	if opts.Keep < 2 {
		opts.Keep = 2
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &Manager{opts: opts}, nil
}

func (m *Manager) dataName(step, shard int) string {
	return fmt.Sprintf("ckpt-%010d-s%03d.samo", step, shard)
}

func (m *Manager) manifestName(step, shard int) string {
	return fmt.Sprintf("ckpt-%010d-s%03d.json", step, shard)
}

// Save checkpoints shard's state as of step. It returns only after the data
// file and manifest are durably on disk and the data file has been re-read
// and CRC-verified.
func (m *Manager) Save(step, shard int, st State) error {
	if shard < 0 || shard >= m.opts.Shards {
		return fmt.Errorf("ckpt: shard %d outside [0,%d)", shard, m.opts.Shards)
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	dataFile := m.dataName(step, shard)
	tmp, err := os.CreateTemp(m.opts.Dir, dataFile+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename

	crc := crc32.NewIEEE()
	n, err := st.Save(io.MultiWriter(tmp, crc))
	if err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: save step %d shard %d: %w", step, shard, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	dataPath := filepath.Join(m.opts.Dir, dataFile)
	if err := os.Rename(tmp.Name(), dataPath); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}

	man := Manifest{
		Version:     manifestVersion,
		Step:        step,
		Shard:       shard,
		Shards:      m.opts.Shards,
		Tag:         m.opts.Tag,
		Fingerprint: st.Fingerprint(),
		Bytes:       n,
		CRC:         crc.Sum32(),
		File:        dataFile,
	}
	if err := m.writeManifest(step, shard, &man); err != nil {
		return err
	}
	if err := syncDir(m.opts.Dir); err != nil {
		return err
	}
	// Read-back: recovery will trust these bytes, so prove now that they
	// come off the disk intact.
	if err := verifyData(dataPath, &man); err != nil {
		return fmt.Errorf("ckpt: read-back verification failed: %w", err)
	}
	return nil
}

func (m *Manager) writeManifest(step, shard int, man *Manifest) error {
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	tmp, err := os.CreateTemp(m.opts.Dir, man.File+".json.tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	dst := filepath.Join(m.opts.Dir, m.manifestName(step, shard))
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// verifyData checks the data file's length and CRC against its manifest.
func verifyData(path string, man *Manifest) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	crc := crc32.NewIEEE()
	n, err := io.Copy(crc, f)
	if err != nil {
		return err
	}
	return checkSum(path, n, crc.Sum32(), man)
}

// checkSum compares a data file's length n and CRC with its manifest's.
func checkSum(path string, n int64, crc uint32, man *Manifest) error {
	if n != man.Bytes {
		return fmt.Errorf("%s: %d bytes, manifest says %d", path, n, man.Bytes)
	}
	if crc != man.CRC {
		return fmt.Errorf("%s: CRC %#x, manifest says %#x", path, crc, man.CRC)
	}
	return nil
}

// readManifest parses and sanity-checks one manifest file.
func (m *Manager) readManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("%s: manifest version %d, want %d", path, man.Version, manifestVersion)
	}
	if man.Shards != m.opts.Shards {
		return nil, fmt.Errorf("%s: %d shards, manager expects %d", path, man.Shards, m.opts.Shards)
	}
	if man.Tag != m.opts.Tag {
		return nil, fmt.Errorf("%s: tag %q, manager expects %q", path, man.Tag, m.opts.Tag)
	}
	return &man, nil
}

// steps scans the directory and returns the step numbers that have a
// manifest for at least one shard, ascending.
func (m *Manager) steps() ([]int, error) {
	ents, err := os.ReadDir(m.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	seen := map[int]bool{}
	for _, e := range ents {
		var step, shard int
		if _, err := fmt.Sscanf(e.Name(), "ckpt-%d-s%d.json", &step, &shard); err == nil &&
			strings.HasSuffix(e.Name(), ".json") {
			seen[step] = true
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out, nil
}

// verifyStep checks that every shard of step has a parseable manifest and a
// data file matching it.
func (m *Manager) verifyStep(step int) error {
	for shard := 0; shard < m.opts.Shards; shard++ {
		man, err := m.readManifest(filepath.Join(m.opts.Dir, m.manifestName(step, shard)))
		if err != nil {
			return fmt.Errorf("step %d shard %d: %w", step, shard, err)
		}
		if err := verifyData(filepath.Join(m.opts.Dir, man.File), man); err != nil {
			return fmt.Errorf("step %d shard %d: %w", step, shard, err)
		}
	}
	return nil
}

// LatestStep returns the newest step whose every shard verifies (manifest
// parses, tag matches, data file length and CRC check out), along with one
// warning per newer step that was skipped as incomplete or corrupt — the
// graceful-fallback path the durability contract promises. ok is false when
// no verifiable checkpoint exists.
func (m *Manager) LatestStep() (step int, warnings []string, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	steps, err := m.steps()
	if err != nil {
		return 0, []string{err.Error()}, false
	}
	for i := len(steps) - 1; i >= 0; i-- {
		if err := m.verifyStep(steps[i]); err != nil {
			warnings = append(warnings, fmt.Sprintf("ckpt: skipping %v", err))
			continue
		}
		return steps[i], warnings, true
	}
	return 0, warnings, false
}

// Load restores shard's state from step. The manifest's fingerprint must
// match the live state's: a checkpoint from a different model, optimizer or
// pruning configuration is refused before any bytes are parsed. The data
// file is read once; its length and CRC are checked against the manifest
// on those bytes, and the same bytes go to st.Load.
func (m *Manager) Load(step, shard int, st State) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	man, err := m.readManifest(filepath.Join(m.opts.Dir, m.manifestName(step, shard)))
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if man.Fingerprint != st.Fingerprint() {
		return fmt.Errorf("ckpt: step %d shard %d fingerprint %#x does not match state %#x (different model/optimizer/pruning config)",
			step, shard, man.Fingerprint, st.Fingerprint())
	}
	path := filepath.Join(m.opts.Dir, man.File)
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := checkSum(path, int64(len(raw)), crc32.ChecksumIEEE(raw), man); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := st.Load(raw); err != nil {
		return fmt.Errorf("ckpt: load step %d shard %d: %w", step, shard, err)
	}
	return nil
}

// Prune deletes all but the newest Keep complete steps (and any leftover
// temp files from interrupted saves). Incomplete or corrupt steps older
// than the newest Keep are deleted too; newer ones are left for LatestStep
// to warn about.
func (m *Manager) Prune() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	steps, err := m.steps()
	if err != nil {
		return err
	}
	complete := make([]int, 0, len(steps))
	for _, s := range steps {
		if m.verifyStep(s) == nil {
			complete = append(complete, s)
		}
	}
	if len(complete) <= m.opts.Keep {
		return m.removeTemps()
	}
	cutoff := complete[len(complete)-m.opts.Keep]
	for _, s := range steps {
		if s >= cutoff {
			continue
		}
		for shard := 0; shard < m.opts.Shards; shard++ {
			os.Remove(filepath.Join(m.opts.Dir, m.dataName(s, shard)))
			os.Remove(filepath.Join(m.opts.Dir, m.manifestName(s, shard)))
		}
	}
	return m.removeTemps()
}

func (m *Manager) removeTemps() error {
	ents, err := os.ReadDir(m.opts.Dir)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			os.Remove(filepath.Join(m.opts.Dir, e.Name()))
		}
	}
	return nil
}

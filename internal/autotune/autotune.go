// Package autotune is the probe → freeze → persist machine behind the
// repo's one runtime-tuned decision, the GEMM blocking (internal/tensor). A
// Table maps a bucket key to an Entry holding a small fixed set of
// candidates. The first few calls on a new bucket each time one candidate —
// the probe does the caller's real work, so nothing is wasted — and once
// every candidate has ProbeRuns samples the one with the lowest minimum time
// per unit of work is frozen into the entry. Every later call is a
// read-locked map hit plus one atomic load, with no allocation.
//
// A frozen bucket may change its mind, which is why only candidates that are
// bitwise-identical may be tuned here (a choice between paths that differ
// numerically, like the sparse/dense crossover, must be a rule over its
// inputs instead). Probe timings are wall-clock around parallel.Run, whose
// helping-wait can execute other goroutines' queued chunks inside the timed
// region, so under concurrent training every initial sample of a candidate
// can be contaminated and a slower one frozen. Every reprobePeriod-th call
// therefore re-times one candidate round-robin: minima only improve, so one
// clean sample of the truly fastest candidate eventually corrects the
// choice.
//
// Decisions persist by default. Whenever a bucket first freezes, a
// background goroutine writes the table to Path() — the file named by the
// client's environment variable if set, else <user cache dir>/samo/<file>
// — and Startup pre-loads that file, so later processes skip the probe
// phase for every bucket an earlier run managed to save. Setting the
// variable to "off" disables persistence and leaves the freeze path
// completely inert. Persistence is best-effort: a save that loses a process
// race, fails to write, or is cut off by process exit inside the saver's
// short coalescing window (Go has no exit hook) just means the next run
// re-probes; short-lived commands call Flush from their exits.
package autotune

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// ProbeRuns is how many timed samples each candidate gets before a bucket
// decides. The minimum over samples is compared (minimum, not mean:
// scheduling noise only ever adds time); three samples make a noise burst
// have to hit the same candidate three times to bias the choice.
const ProbeRuns = 3

// reprobePeriod is the period of post-freeze drift probes: one timed call in
// 512 keeps the correction overhead unmeasurable.
const reprobePeriod = 512

// Spec is everything client-specific. K is the bucket key and R the
// persisted JSON form of one decided bucket.
type Spec[K comparable, R any] struct {
	// Env names the environment variable that redirects ("<path>") or
	// disables ("off") persistence; File is the default file name under
	// <user cache dir>/samo. Description is written into the file.
	Env, File, Description string
	// Cands returns how many candidates a bucket chooses among.
	Cands func(K) int
	// Encode renders a decided bucket as its record. Decode resolves a
	// record against the current build — ok=false skips records this build
	// does not know (a changed candidate set, a newer op or variant).
	Encode func(k K, chosen int) R
	Decode func(R) (k K, chosen int, ok bool)
}

// Log2Bucket returns ceil(log2(n)), the unit bucket keys are built in:
// shapes within a power of two share a decision, which keeps a table a few
// dozen entries for a whole training run.
func Log2Bucket(n int) uint8 {
	if n <= 1 {
		return 0
	}
	return uint8(bits.Len(uint(n - 1)))
}

// Table is one client's set of buckets plus its persistence state.
type Table[K comparable, R any] struct {
	spec Spec[K, R]

	mu sync.RWMutex
	m  map[K]*Entry

	// dirty is set whenever a bucket freezes in THIS process — i.e. the
	// in-memory table holds a decision the file may lack. Buckets pre-seeded
	// from disk do not set it, so a process that probed nothing new never
	// rewrites the file (Flush would otherwise rename its possibly stale
	// startup copy over decisions a concurrent process just saved).
	dirty atomic.Bool

	// The debounced background saver, started lazily on the first freeze.
	saverOnce sync.Once
	kick      chan struct{}
}

// New returns an empty table. Clients call Startup from their init.
func New[K comparable, R any](spec Spec[K, R]) *Table[K, R] {
	return &Table[K, R]{spec: spec}
}

// Entry is one bucket's probe state.
type Entry struct {
	chosen atomic.Int32 // -1 while probing, the winning candidate afterwards
	calls  atomic.Int64 // post-freeze call counter driving drift probes
	owner  interface{ froze() }

	mu    sync.Mutex
	cands []candStat
}

type candStat struct {
	best float64 // min ns per unit of work over recorded samples
	recs int     // samples recorded (freeze gate)
	runs int     // probes handed out (round-robin gate)
}

func (t *Table[K, R]) newEntry(k K, chosen int) *Entry {
	e := &Entry{owner: t, cands: make([]candStat, t.spec.Cands(k))}
	e.chosen.Store(int32(chosen))
	return e
}

// For returns the (existing or new) entry for a bucket. The fast path is a
// read-locked map hit — no allocation, no contention in steady state.
func (t *Table[K, R]) For(k K) *Entry {
	t.mu.RLock()
	e := t.m[k]
	t.mu.RUnlock()
	if e != nil {
		return e
	}
	t.mu.Lock()
	if e = t.m[k]; e == nil {
		if t.m == nil {
			t.m = make(map[K]*Entry)
		}
		e = t.newEntry(k, -1)
		t.m[k] = e
	}
	t.mu.Unlock()
	return e
}

// Reset clears all decisions (tests, and benchmarks re-probing), including
// the dirty flag — decisions that no longer exist must not be flushed over
// the on-disk table.
func (t *Table[K, R]) Reset() {
	t.mu.Lock()
	t.m = nil
	t.dirty.Store(false)
	t.mu.Unlock()
}

// Chosen returns the frozen candidate index, or -1 while probing.
func (e *Entry) Chosen() int { return int(e.chosen.Load()) }

// Next returns the candidate to run NOW and whether this call is a probe
// the caller must time and report back through Record. While the bucket is
// undecided — and on every reprobePeriod-th call after it froze — the
// least-sampled candidate is handed out, lowest index first: a
// deterministic round-robin (choice by call count, not by timing).
func (e *Entry) Next() (idx int, probe bool) {
	if c := e.chosen.Load(); c >= 0 && e.calls.Add(1)%reprobePeriod != 0 {
		return int(c), false
	}
	e.mu.Lock()
	for i := range e.cands {
		if e.cands[i].runs < e.cands[idx].runs {
			idx = i
		}
	}
	e.cands[idx].runs++
	e.mu.Unlock()
	return idx, true
}

// Record stores one probe timing for a call of `work` units and freezes
// the winner once every candidate has ProbeRuns samples. Timings are
// compared per unit of work, not raw: a log2 bucket spans up to 2x per
// dimension, so two shapes in one bucket can differ ~8x in work and a
// raw-duration comparison would crown whichever candidate happened to be
// timed on the smallest shape.
func (e *Entry) Record(idx int, d time.Duration, work int) {
	if d < 1 {
		d = 1 // coarse clocks can report 0 on tiny shapes; 0 must still count as a sample
	}
	if work < 1 {
		work = 1
	}
	v := float64(d) / float64(work)
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := &e.cands[idx]
	if cur.recs == 0 || v < cur.best {
		cur.best = v
	}
	cur.recs++
	win := 0
	for i, c := range e.cands {
		if c.recs < ProbeRuns {
			return
		}
		if c.best < e.cands[win].best {
			win = i
		}
	}
	// Only the initial freeze is persisted. Later drift-probe corrections
	// update the in-process choice but deliberately do NOT wake the saver:
	// a winner flip can happen at any point of a training run, and
	// filesystem work (and its allocations) would land inside the steady
	// state the zero-alloc contracts pin. The next process simply starts
	// from the previously saved winner.
	if e.chosen.Swap(int32(win)) == -1 {
		e.owner.froze()
	}
}

// froze marks the table dirty and kicks the background saver. Callers never
// allocate after the first freeze (one buffered channel send). With
// persistence disabled the path stays completely inert — no goroutine, no
// channel — so tests pinning process-wide allocation counts can opt out
// hermetically.
func (t *Table[K, R]) froze() {
	t.dirty.Store(true)
	if t.Path() == "" {
		return
	}
	t.saverOnce.Do(func() {
		t.kick = make(chan struct{}, 1)
		go t.saverLoop()
	})
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

func (t *Table[K, R]) saverLoop() {
	for range t.kick {
		// Brief coalescing window: at startup several hot buckets freeze
		// within a few steps of each other and one write covers them. Kept
		// short because the process gives no exit hook; later freezes
		// re-kick and rewrite, so long-lived trainers always persist their
		// full table. Routing through Flush keeps the dirty guard
		// authoritative: once any flush has persisted the current decisions
		// — or Reset has discarded them — a stale kick writes nothing.
		time.Sleep(20 * time.Millisecond)
		select {
		case <-t.kick:
		default:
		}
		_ = t.Flush()
	}
}

// Path resolves where decisions persist, "" when persistence is disabled.
// Resolved on every call so tests can redirect it with a scoped setenv.
func (t *Table[K, R]) Path() string {
	switch p := os.Getenv(t.spec.Env); p {
	case "off":
		return ""
	case "":
		dir, err := os.UserCacheDir()
		if err != nil {
			return ""
		}
		return filepath.Join(dir, "samo", t.spec.File)
	default:
		return p
	}
}

type file[R any] struct {
	Description string `json:"description"`
	Entries     []R    `json:"entries"`
}

// Save writes every decided bucket to path as JSON; buckets still probing
// are skipped. The table is written to a temp file and renamed, so
// concurrent readers never observe a partial table; the temp name is unique
// because the background saver and a synchronous Flush can run concurrently,
// and two writers interleaving on one shared temp file could rename a
// corrupt table into place.
func (t *Table[K, R]) Save(path string) (err error) {
	f := file[R]{Description: t.spec.Description}
	t.mu.RLock()
	for k, e := range t.m {
		if idx := e.Chosen(); idx >= 0 {
			f.Entries = append(f.Entries, t.spec.Encode(k, idx))
		}
	}
	t.mu.RUnlock()
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+t.spec.File+"-*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// errParse marks a table that exists but does not parse — the one load
// failure worth quarantining at startup (I/O errors are transient and the
// file may be fine on the next run).
var errParse = errors.New("unparseable table")

// Load pre-seeds the table from a file written by Save: matching buckets
// skip the probe phase. Records the client's Decode rejects, or whose
// choice is not one of the bucket's candidates, are ignored.
func (t *Table[K, R]) Load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f file[R]
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("autotune: %s: %w: %w", path, errParse, err)
	}
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[K]*Entry)
	}
	for _, r := range f.Entries {
		if k, chosen, ok := t.spec.Decode(r); ok && chosen >= 0 && chosen < t.spec.Cands(k) {
			t.m[k] = t.newEntry(k, chosen)
		}
	}
	t.mu.Unlock()
	return nil
}

// Flush synchronously persists the current decisions to Path(), creating
// the directory as needed. It is a no-op (nil) when persistence is disabled
// or when this process has frozen nothing new since the last flush: a table
// holding only disk-loaded decisions must not be renamed over the file — it
// may be a stale copy of decisions a concurrent process has since extended
// — and an undecided table must not clobber a previous run's save when the
// startup pre-load failed.
func (t *Table[K, R]) Flush() error {
	path := t.Path()
	if path == "" || !t.dirty.Swap(false) {
		return nil
	}
	err := os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil {
		err = t.Save(path)
	}
	if err != nil {
		t.dirty.Store(true) // still unsaved; a later flush should retry
	}
	return err
}

// Startup is the init-time pre-load of Path(), reporting to stderr.
func (t *Table[K, R]) Startup() {
	if path := t.Path(); path != "" {
		if msg := t.startupLoad(path, os.Getenv(t.spec.Env) != ""); msg != "" {
			fmt.Fprintln(os.Stderr, msg)
		}
	}
}

// startupLoad degrades gracefully: a corrupt table is quarantined (renamed
// to <path>.corrupt) so a damaged cache is moved out of the way once and
// can never wedge startup again — the probe phase rebuilds the table and
// the next save rewrites the file. A missing file just re-probes (first run
// on a machine); other errors are reported only when the operator pointed
// the environment variable at the file, because silently re-probing is
// exactly what the variable was set to avoid. Returns the warning to log,
// or "" when there is nothing to say.
func (t *Table[K, R]) startupLoad(path string, explicit bool) string {
	err := t.Load(path)
	switch {
	case err == nil || os.IsNotExist(err):
		return ""
	case errors.Is(err, errParse):
		quarantine := path + ".corrupt"
		if rerr := os.Rename(path, quarantine); rerr != nil {
			return fmt.Sprintf("autotune: ignoring corrupt table (quarantine failed: %v): %v", rerr, err)
		}
		return fmt.Sprintf("autotune: quarantined corrupt table to %s; re-probing (%v)", quarantine, err)
	case explicit:
		return fmt.Sprintf("autotune: %s not loaded: %v", t.spec.Env, err)
	default:
		return ""
	}
}

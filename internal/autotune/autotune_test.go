package autotune

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const testEnv = "SAMO_AUTOTUNE_TEST_TABLE"

type testRec struct {
	Key  uint8 `json:"key"`
	Pick int   `json:"pick"`
}

type testTable = Table[uint8, testRec]

// newTestTable builds a table whose even keys have two candidates and odd
// keys three, with a codec that trusts the record's pick (so the shared
// range guard in Load is what is under test) and rejects keys >= 200.
func newTestTable() *testTable {
	return New(Spec[uint8, testRec]{
		Env: testEnv, File: "test_table.json", Description: "test",
		Cands:  func(k uint8) int { return 2 + int(k%2) },
		Encode: func(k uint8, chosen int) testRec { return testRec{k, chosen} },
		Decode: func(r testRec) (uint8, int, bool) { return r.Key, r.Pick, r.Key < 200 },
	})
}

// freeze drives one bucket through its probe phase with timings that make
// winner win.
func freeze(t *testing.T, e *Entry, winner int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		idx, probe := e.Next()
		if !probe {
			if idx != winner {
				t.Fatalf("bucket froze to %d, want %d", idx, winner)
			}
			return
		}
		d := 10 * time.Millisecond
		if idx == winner {
			d = time.Millisecond
		}
		e.Record(idx, d, 1000)
	}
	t.Fatal("bucket did not freeze within the probe budget")
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func wantFile(t *testing.T, path string, want bool, why string) {
	t.Helper()
	if _, err := os.Stat(path); (err == nil) != want {
		t.Fatalf("%s: file present = %v", why, !want)
	}
}

func wantChosen(t *testing.T, tb *testTable, want map[uint8]int) {
	t.Helper()
	for k, w := range want {
		if got := tb.For(k).Chosen(); got != w {
			t.Fatalf("bucket %d: chosen %d, want %d", k, got, w)
		}
	}
}

// TestProbeOrderAndFreeze pins the probe phase: candidates are handed out
// least-sampled first (choice by call count, never by timing), the bucket
// freezes exactly when every candidate has ProbeRuns samples, the winner is
// the lowest minimum time PER UNIT OF WORK, and a frozen bucket answers
// without probing.
func TestProbeOrderAndFreeze(t *testing.T) {
	t.Setenv(testEnv, "off")
	tb := newTestTable()
	e := tb.For(1) // three candidates
	if tb.For(1) != e {
		t.Fatal("one bucket must map to one entry")
	}
	for i := 0; i < 3*ProbeRuns; i++ {
		idx, probe := e.Next()
		if !probe || idx != i%3 || e.Chosen() != -1 {
			t.Fatalf("probe %d: got (%d, %v) chosen %d, want (%d, true) and undecided", i, idx, probe, e.Chosen(), i%3)
		}
		// Candidate 1 is slowest in raw time but does 100x the work.
		d, work := 5*time.Millisecond, 1000
		if idx == 1 {
			d, work = 50*time.Millisecond, 100000
		}
		e.Record(idx, d, work)
	}
	for i := 0; i < 10; i++ {
		if idx, probe := e.Next(); probe || idx != 1 {
			t.Fatalf("frozen bucket returned (%d, %v), want (1, false): lowest time per unit of work", idx, probe)
		}
	}
}

// TestDriftReprobe pins the post-freeze behaviour: every reprobePeriod-th
// call is a probe, a cleaner sample flips the winner, and the flip is NOT
// marked for persistence.
func TestDriftReprobe(t *testing.T) {
	t.Setenv(testEnv, "off")
	tb := newTestTable()
	e := tb.For(0)
	freeze(t, e, 0) // freeze's final Next was post-freeze call 1
	tb.dirty.Store(false)
	for call := 2; call <= 2*reprobePeriod; call++ {
		idx, probe := e.Next()
		if probe != (call%reprobePeriod == 0) {
			t.Fatalf("post-freeze call %d: probe=%v", call, probe)
		}
		if probe {
			// Both far faster than any startup sample; candidate 1 fastest.
			e.Record(idx, time.Microsecond/time.Duration(1+9*idx), 1000)
		}
	}
	if e.Chosen() != 1 || tb.dirty.Load() {
		t.Fatalf("after drift probes: chosen %d (want 1), dirty %v (want false)", e.Chosen(), tb.dirty.Load())
	}
}

// TestPersistence is the one suite for the persistence discipline; tensor
// tests only its record codec.
func TestPersistence(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, tb *testTable, path string)
	}{
		{"corrupt table is quarantined once", func(t *testing.T, tb *testTable, path string) {
			// A truncated file: valid JSON prefix, cut mid-document.
			must(t, os.WriteFile(path, []byte(`{"entries":[{"key":0,`), 0o644))
			if msg := tb.startupLoad(path, true); !strings.Contains(msg, "quarantined") {
				t.Fatalf("startup load of truncated table: %q, want quarantine message", msg)
			}
			wantFile(t, path, false, "corrupt table left in place would trip the next startup again")
			wantFile(t, path+".corrupt", true, "quarantine file")
			if msg := tb.startupLoad(path, true); msg != "" {
				t.Fatalf("startup after quarantine must be silent, got %q", msg)
			}
		}},
		{"missing table is silent", func(t *testing.T, tb *testTable, path string) {
			for _, explicit := range []bool{false, true} {
				if msg := tb.startupLoad(path, explicit); msg != "" {
					t.Fatalf("missing table (explicit=%v) must be silent, got %q", explicit, msg)
				}
			}
		}},
		{"unreadable table warns only when explicit", func(t *testing.T, tb *testTable, path string) {
			must(t, os.Mkdir(path, 0o755)) // reading a directory fails, but not as a parse error
			if msg := tb.startupLoad(path, false); msg != "" {
				t.Fatalf("default-path I/O error must be silent, got %q", msg)
			}
			if msg := tb.startupLoad(path, true); !strings.Contains(msg, testEnv) {
				t.Fatalf("explicit-path I/O error: %q, want a warning naming %s", msg, testEnv)
			}
			wantFile(t, path, true, "an I/O error must not quarantine")
		}},
		{"off disables persistence and keeps the freeze path inert", func(t *testing.T, tb *testTable, path string) {
			t.Setenv(testEnv, "off")
			freeze(t, tb.For(0), 1)
			if tb.Path() != "" || tb.kick != nil {
				t.Fatalf("persistence off: Path %q, saver started %v", tb.Path(), tb.kick != nil)
			}
			must(t, tb.Flush())
		}},
		{"flush writes only decisions frozen in this process", func(t *testing.T, tb *testTable, path string) {
			must(t, tb.Flush())
			wantFile(t, path, false, "flush of an undecided table")
			freeze(t, tb.For(0), 1)
			must(t, tb.Flush())
			wantFile(t, path, true, "flush after a freeze")
			// A table holding only disk-loaded decisions is not dirty:
			// flushing it must not rewrite the file (it could rename a stale
			// startup copy over a concurrent process's newer save).
			tb.Reset()
			must(t, tb.Load(path))
			wantChosen(t, tb, map[uint8]int{0: 1})
			must(t, os.Remove(path))
			must(t, tb.Flush())
			wantFile(t, path, false, "flush of a loaded-but-unchanged table")
		}},
		{"background saver persists a freeze", func(t *testing.T, tb *testTable, path string) {
			freeze(t, tb.For(3), 2)
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				if _, err := os.Stat(path); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the debounced saver never wrote the table")
				}
			}
			tb.Reset()
			must(t, tb.Load(path))
			wantChosen(t, tb, map[uint8]int{3: 2})
		}},
		// Regression (fails at the parent's GEMM tuner, whose saver called
		// Save without consulting the dirty flag): a background kick still
		// pending when the table is reset must not rename an empty table
		// over a good file.
		{"stale background kick writes nothing", func(t *testing.T, tb *testTable, path string) {
			freeze(t, tb.For(0), 1) // kicks the saver; it sleeps through its coalescing window
			must(t, tb.Flush())
			const sentinel = "written by a later process"
			must(t, os.WriteFile(path, []byte(sentinel), 0o644))
			tb.Reset()
			time.Sleep(150 * time.Millisecond) // well past the 20ms window
			if got, err := os.ReadFile(path); err != nil || string(got) != sentinel {
				t.Fatalf("stale kick overwrote the file: %q, %v", got, err)
			}
		}},
		{"round trip keeps decided buckets only; unknown and out-of-range records are skipped", func(t *testing.T, tb *testTable, path string) {
			freeze(t, tb.For(0), 1)
			freeze(t, tb.For(1), 2)
			tb.For(2).Next() // left mid-probe: must not appear in the file
			must(t, tb.Save(path))
			tb.Reset()
			must(t, tb.Load(path))
			wantChosen(t, tb, map[uint8]int{0: 1, 1: 2, 2: -1})
			if idx, probe := tb.For(1).Next(); probe || idx != 2 {
				t.Fatalf("loaded bucket re-probes: (%d, %v)", idx, probe)
			}
			hand := `{"entries":[{"key":4,"pick":2},{"key":5,"pick":2},{"key":6,"pick":-1},{"key":250,"pick":0}]}`
			must(t, os.WriteFile(path, []byte(hand), 0o644))
			must(t, tb.Load(path))
			wantChosen(t, tb, map[uint8]int{4: -1, 5: 2, 6: -1, 250: -1})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "table.json")
			t.Setenv(testEnv, path)
			c.run(t, newTestTable(), path)
		})
	}
}

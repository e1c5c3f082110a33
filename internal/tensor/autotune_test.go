package tensor

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The persistence discipline (quarantine, dirty flag, saver, flush) is
// pinned once in internal/autotune; these tests cover what is GEMM-specific:
// how a tuneRecord resolves against the current candidate sets.

// TestTunePersistenceRoundTrip freezes a bucket through real dispatches,
// forward and transposed, and round-trips it through the JSON table: the
// variant key must survive, the loaded bucket must skip probing with the
// same blocking, and the other variants' buckets at the same shape must be
// unaffected (variants tune independently).
func TestTunePersistenceRoundTrip(t *testing.T) {
	defer ResetTuneTable()
	a, b, bT, c := New(24, 200), New(200, 48), New(48, 200), New(24, 48) // values are irrelevant to timing
	for v, call := range map[gemmVariant]func(){
		gemmNN: func() { gemm(c.data, a.data, b.data, 24, 200, 48, false) },
		gemmNT: func() { gemmT(c.data, a.data, bT.data, 24, 200, 48, false) },
	} {
		ResetTuneTable()
		warmAutotune(v, 24, 200, 48, call)
		chosen := tuneFor(v, 24, 200, 48).Chosen()
		if chosen < 0 {
			t.Fatalf("variant %d: autotuner did not decide within the probe budget", v)
		}
		path := filepath.Join(t.TempDir(), "tune.json")
		if err := SaveTuneTable(path); err != nil {
			t.Fatal(err)
		}
		ResetTuneTable()
		if err := LoadTuneTable(path); err != nil {
			t.Fatal(err)
		}
		for w := gemmVariant(0); w < gemmVariants; w++ {
			want := -1
			if w == v {
				want = chosen
			}
			if got := tuneFor(w, 24, 200, 48).Chosen(); got != want {
				t.Fatalf("saved variant %d: variant %d reloaded as %d, want %d", v, w, got, want)
			}
		}
	}
}

func TestTuneRecordCodec(t *testing.T) {
	ResetTuneTable()
	defer ResetTuneTable()
	path := filepath.Join(t.TempDir(), "tune.json")
	doc := `{"entries":[
		{"mb":5,"kb":8,"nb":6,"kc":256,"nc":512,"pack":false},
		{"variant":2,"mb":5,"kb":8,"nb":6,"kc":256,"nc":128,"pack":true,"strip":true},
		{"variant":1,"mb":5,"kb":8,"nb":6,"kc":256,"nc":512,"pack":false},
		{"mb":4,"kb":8,"nb":6,"kc":192,"nc":128,"pack":true},
		{"variant":3,"mb":5,"kb":8,"nb":6,"kc":256,"nc":128,"pack":true}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadTuneTable(path); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what string
		key  tuneKey
		want int
	}{
		{"a variant-less (legacy) record loads as the forward product", tuneKey{uint8(gemmNN), 5, 8, 6}, 0},
		{"a variant survives", tuneKey{uint8(gemmTN), 5, 8, 6}, 0},
		{"direct-B is not a transposed candidate: skipped", tuneKey{uint8(gemmNT), 5, 8, 6}, -1},
		{"a blocking that is no current candidate is skipped", tuneKey{uint8(gemmNN), 4, 8, 6}, -1},
		{"a variant this build lacks is skipped", tuneKey{3, 5, 8, 6}, -1},
	} {
		if got := tuneTable.For(tc.key).Chosen(); got != tc.want {
			t.Errorf("%s: chosen %d, want %d", tc.what, got, tc.want)
		}
	}
}

// TestParentTuneTableLoads is the format fixture: a gemm_tune.json written
// by the last build that had its own tuner (all three variants, forward
// records variant-less, plain-panel and mc row-blocked blockings among
// them) must load with every record whose blocking is still a candidate —
// direct-B and the two strips — honoured, every other one skipped, and
// the same again after a round trip through this build's SaveTuneTable.
func TestParentTuneTableLoads(t *testing.T) {
	ResetTuneTable()
	defer ResetTuneTable()
	path := "testdata/gemm_tune_parent.json"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Entries []struct {
			tuneRecord
			MC int `json:"mc"` // the row-blocking field this build no longer has
		}
	}
	if err := json.Unmarshal(data, &f); err != nil || len(f.Entries) == 0 {
		t.Fatalf("fixture: %d entries, %v", len(f.Entries), err)
	}
	for _, pass := range []string{"parent's file", "round trip"} {
		ResetTuneTable()
		if err := LoadTuneTable(path); err != nil {
			t.Fatal(err)
		}
		honoured := 0
		for _, r := range f.Entries {
			idx := tuneTable.For(tuneKey{r.V, r.MB, r.KB, r.NB}).Chosen()
			if r.Pack && !r.Strip || r.MC != 0 { // a culled blocking
				if idx >= 0 {
					t.Fatalf("%s: record %+v names a culled blocking but was installed as candidate %d", pass, r, idx)
				}
				continue
			}
			if idx < 0 {
				t.Fatalf("%s: record %+v was not installed", pass, r)
			}
			if c := tuneCandsFor(gemmVariant(r.V))[idx]; c != (tuneCand{r.KC, r.NC, r.Strip}) {
				t.Fatalf("%s: record %+v resolved to blocking %+v", pass, r, c)
			}
			honoured++
		}
		if honoured != 6 { // 3 direct-B + 3 strip records in the fixture
			t.Fatalf("%s: %d records honoured, want 6", pass, honoured)
		}
		path = filepath.Join(t.TempDir(), "tune.json")
		if err := SaveTuneTable(path); err != nil {
			t.Fatal(err)
		}
	}
}

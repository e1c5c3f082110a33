package sparse

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The persistence discipline (quarantine, dirty flag, saver, flush) is
// pinned once in internal/autotune; these tests cover what is
// crossover-specific: the xoverRecord codec.

// TestXoverRecordSkipsUnknown: records with an op or a choice string this
// build does not know are skipped, the rest of the file still loads.
func TestXoverRecordSkipsUnknown(t *testing.T) {
	ResetXover()
	defer ResetXover()
	path := filepath.Join(t.TempDir(), "sparse_xover.json")
	doc := `{"entries":[
		{"op":2,"mb":5,"kb":7,"nb":7,"db":4,"choice":"dense"},
		{"op":0,"mb":5,"kb":7,"nb":7,"db":4,"choice":"blocked"},
		{"op":1,"mb":5,"kb":7,"nb":7,"db":4,"choice":"dense"}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadXoverTable(path); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[xoverKey]int{
		{2, 5, 7, 7, 4}:               -1,
		{XoverOpForward, 5, 7, 7, 4}:  -1,
		{XoverOpBackward, 5, 7, 7, 4}: int(XoverDense),
	} {
		if got := xoverTable.For(k).Chosen(); got != want {
			t.Errorf("bucket %+v: chosen %d, want %d", k, got, want)
		}
	}
}

// TestParentXoverTableLoads is the format fixture: a sparse_xover.json
// written by the last build that had its own persistence code must load
// with every record honoured — and honoured again after a round trip
// through this build's SaveXoverTable.
func TestParentXoverTableLoads(t *testing.T) {
	ResetXover()
	defer ResetXover()
	path := "testdata/sparse_xover_parent.json"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct{ Entries []xoverRecord }
	if err := json.Unmarshal(data, &f); err != nil || len(f.Entries) == 0 {
		t.Fatalf("fixture: %d entries, %v", len(f.Entries), err)
	}
	for _, pass := range []string{"parent's file", "round trip"} {
		ResetXover()
		if err := LoadXoverTable(path); err != nil {
			t.Fatal(err)
		}
		for _, r := range f.Entries {
			e := (*XoverEntry)(xoverTable.For(xoverKey{XoverOp(r.Op), r.MB, r.KB, r.NB, r.DB}))
			if c, ok := e.Decided(); !ok || c.String() != r.Choice {
				t.Fatalf("%s: record %+v loaded as (%v, decided=%v)", pass, r, c, ok)
			}
		}
		path = filepath.Join(t.TempDir(), "sparse_xover.json")
		if err := SaveXoverTable(path); err != nil {
			t.Fatal(err)
		}
	}
}

package autotune_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/sparse-dl/samo/internal/tensor"
)

// FuzzTableLoad drives arbitrary bytes through the table loader with the
// GEMM tuner's real record codec. A table file is a trust boundary (it
// lives in the user's cache directory, or wherever an environment variable
// points), so for any input Load must not panic, and whatever it installed
// must be a decision the current build can name: Save re-encodes every
// installed bucket — the GEMM codec indexes its candidate list with the
// chosen index, so an out-of-range one panics here — and every record it
// writes must survive a second load and save.
func FuzzTableLoad(f *testing.F) {
	seed, err := os.ReadFile("../tensor/testdata/gemm_tune_parent.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // cut mid-document: rejected whole
	f.Add([]byte(`{"entries":[{"variant":9,"mb":255,"kc":-1},{"variant":2,"kc":512,"nc":256,"pack":true,"strip":true}]}`))
	f.Add([]byte(`{"entries":[{"mb":3,"kc":256,"nc":512,"pack":false},{"variant":1,"kc":256,"nc":512}]}`))
	f.Add([]byte(`{"entries":[{"mb":300}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tensor.ResetTuneTable()
		defer tensor.ResetTuneTable()
		if tensor.LoadTuneTable(in) != nil {
			return // rejected whole
		}
		var records int
		for pass := 0; pass < 2; pass++ { // save, reload what was saved, save again
			if err := tensor.SaveTuneTable(out); err != nil {
				t.Fatalf("save: %v", err)
			}
			saved, _ := os.ReadFile(out)
			n := bytes.Count(saved, []byte(`"mb"`))
			if pass > 0 && n != records {
				t.Fatalf("%d installed records, %d after a reload:\n%s", records, n, saved)
			}
			records = n
			tensor.ResetTuneTable()
			if err := tensor.LoadTuneTable(out); err != nil {
				t.Fatalf("a saved table does not load: %v", err)
			}
		}
	})
}

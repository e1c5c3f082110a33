package autotune_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// FuzzTableLoad drives arbitrary bytes through the one loader both
// persisted tables share, with each client's real record codec. A table
// file is a trust boundary (it lives in the user's cache directory, or
// wherever an environment variable points), so for any input Load must not
// panic, and whatever it installed must be a decision the current build can
// name: Save re-encodes every installed bucket — the GEMM codec indexes its
// candidate list with the chosen index, so an out-of-range one panics here —
// and every record it writes must survive a second load and save.
func FuzzTableLoad(f *testing.F) {
	for _, name := range []string{"../tensor/testdata/gemm_tune_parent.json", "../sparse/testdata/sparse_xover_parent.json"} {
		seed, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"entries":[{"variant":9,"mb":255,"kc":-1},{"op":7,"choice":"both"},{"choice":"dense","db":255}]}`))
	f.Add([]byte(`{"entries":[{"mb":3,"kc":256,"nc":512,"pack":false},{"variant":1,"kc":256,"nc":512}]}`))
	f.Add([]byte(`{"entries":[{"mb":300}]}`))

	tables := []struct {
		name       string
		reset      func()
		load, save func(string) error
	}{
		{"gemm", tensor.ResetTuneTable, tensor.LoadTuneTable, tensor.SaveTuneTable},
		{"xover", sparse.ResetXover, sparse.LoadXoverTable, sparse.SaveXoverTable},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, tb := range tables {
			tb.reset()
			defer tb.reset()
			if tb.load(in) != nil {
				continue // rejected whole
			}
			var records int
			for pass := 0; pass < 2; pass++ { // save, reload what was saved, save again
				if err := tb.save(out); err != nil {
					t.Fatalf("%s: save: %v", tb.name, err)
				}
				saved, _ := os.ReadFile(out)
				n := bytes.Count(saved, []byte(`"mb"`))
				if pass > 0 && n != records {
					t.Fatalf("%s: %d installed records, %d after a reload:\n%s", tb.name, records, n, saved)
				}
				records = n
				tb.reset()
				if err := tb.load(out); err != nil {
					t.Fatalf("%s: a saved table does not load: %v", tb.name, err)
				}
			}
		}
	})
}

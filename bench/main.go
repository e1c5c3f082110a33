// Command bench is the repository's end-to-end benchmark: six named
// training and serving workloads measured from outside the program, by
// timing calls into the public functions of internal/*. One run prints one
// line per metric and, last, the JSON object BENCHMARK.json's contract asks
// for. See README.md for what each workload and metric is for.
//
//	bash bench/run.sh --workload gpt_serial_samo --seed 1 --seconds 10 --trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"github.com/sparse-dl/samo/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed for model init, corpus, MLP inputs and request samples")
	seconds := fs.Float64("seconds", runSeconds, "run length; every step count and duration scales with it")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	spansOut := fs.String("spans", "", "traced run: write the spans to this file (JSON lines)")
	replay := fs.String("replay", "", "print the per-layer self-time table of a span file and exit")
	aa := fs.Int("aa", 0, "run the set this many times back to back and compare the runs with the bounds")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	tmp := fs.String("tmpdir", filepath.Join(".bench_build", "tmp"), "directory for checkpoint files; created if absent")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *printManifest {
		blob, err := manifest()
		if err != nil {
			return err
		}
		_, err = out.Write(blob)
		return err
	}
	if *replay != "" {
		return replaySpans(out, *replay)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}

	// Hermetic tuner state: neither autotuner table is read from or written
	// to the user's cache directory. run.sh sets these before the process
	// starts (the packages pre-load their tables at init); setting them here
	// too keeps a bare `go run ./bench` from writing, and hermetic() drops
	// whatever init loaded.
	os.Setenv("SAMO_GEMM_TUNE", "off")
	os.Setenv("SAMO_SPARSE_XOVER_TABLE", "off")
	defer tensor.SetWorkers(tensor.SetWorkers(runtime.NumCPU()))

	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		return err
	}
	var selected []workload
	for _, w := range workloads() {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	fmt.Fprintf(out, "# %s seed=%d seconds=%g trace=%d\n", fingerprint(), *seed, *seconds, *trace)

	var spans []span
	c := runCtx{seed: *seed, seconds: *seconds, trace: *trace == 1, tmpDir: *tmp, spans: &spans}
	if *aa > 0 {
		return runAA(out, selected, c, *aa)
	}
	table := endToEnd
	if c.trace {
		table = perLayer
	}
	failed := false
	for _, w := range selected {
		from := len(spans)
		res, err := runOne(w, c)
		if err != nil {
			return err
		}
		if c.trace {
			printSelfTables(out, spans[from:])
		}
		if err := res.print(out, table); err != nil {
			return err
		}
		failed = failed || !res.correct()
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, spans); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// runOne runs a workload after returning the previous one's garbage to the
// OS. Pools and arenas it filled stay, so heap_live_bytes is only
// comparable between runs that each had a process of their own.
func runOne(w workload, c runCtx) (*result, error) {
	debug.FreeOSMemory()
	res, err := w.run(c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return res, nil
}

func printSelfTables(out io.Writer, spans []span) {
	by := map[string][]span{}
	for _, s := range spans {
		by[s.Workload] = append(by[s.Workload], s)
	}
	for _, k := range sortedKeys(by) {
		printSelfTable(out, k, by[k])
	}
}

func replaySpans(out io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := readSpans(f)
	if err != nil {
		return err
	}
	printSelfTables(out, spans)
	return nil
}

// fingerprint names the machine and build the numbers come from. Numbers
// from different fingerprints — or different sessions on one machine — are
// not comparable; only interleaved runs are.
func fingerprint() string {
	cpu := "unknown"
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d %s %s/%s rev=%s", cpu, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, rev)
}

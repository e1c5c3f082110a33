// samo-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	samo-experiments -exp all            # everything (fig4 trains ~2 min)
//	samo-experiments -exp fig6,table2    # specific experiments
//	samo-experiments -exp fig4 -iters 300
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	samo "github.com/sparse-dl/samo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the testable body of the command: flags parse from args, output
// goes to out, and failures return instead of exiting the process.
func run(args []string, out io.Writer) error {
	// Persist any GEMM autotuner decisions this process probed before it
	// exits — the debounced background saver cannot be relied on in a
	// short-lived command (see samo.FlushTuneTable).
	defer func() { _ = samo.FlushTuneTable() }()
	fs := flag.NewFlagSet("samo-experiments", flag.ContinueOnError)
	// Parse errors are returned (main prints them once, to stderr);
	// -h gets the usage on the success writer and a clean exit.
	fs.SetOutput(io.Discard)
	exp := fs.String("exp", "all", "comma-separated experiment names, or 'all': "+
		strings.Join(samo.ExperimentNames(), ","))
	iters := fs.Int("iters", 200, "training iterations for fig4")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		return err
	}

	names := samo.ExperimentNames()
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	for i, name := range names {
		if i > 0 {
			fmt.Fprintln(out)
		}
		if !samo.RunExperiment(strings.TrimSpace(name), out, *iters) {
			return fmt.Errorf("unknown experiment %q (valid: %s)",
				name, strings.Join(samo.ExperimentNames(), ", "))
		}
	}
	return nil
}

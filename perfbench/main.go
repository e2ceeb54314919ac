// Command perfbench is the repository's benchmark. It runs one seeded
// workload through the public ttg API, checks every rep against a
// sequential reference, and prints each end-to-end metric (--trace 0) or
// each per-layer metric (--trace 1) by name and unit, ending with one JSON
// line:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {"core_ns_per_task": {"value": 211.4, "unit": "ns"}, ...}}
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload chain --seed 1 --seconds 15 --trace 0
//
// See README.md in this directory for the workloads and the comparison
// method.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	var opt options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "", "workload: chain, stencil, dist_stencil or mra")
	fs.Int64Var(&opt.seed, "seed", 1, "seed for the workload's inputs")
	fs.Float64Var(&opt.seconds, "seconds", 10, "how long the measured reps run")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&opt.spansDir, "spans-dir", filepath.Join(".bench_build", "perfbench", "spans"), "directory the spans file is written to")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	opt.trace = trace == 1
	if _, ok := findWorkload(opt.workload); !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", opt.workload)
		os.Exit(2)
	}
	res, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res.Failed > 0 {
		os.Exit(1)
	}
}

// jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the human-readable table and then the result line,
// which must stay the last line of standard output.
func printResult(w io.Writer, res *result) error {
	defs := endToEnd
	if res.Record.Trace == 1 {
		defs = perLayer
	}
	rec, err := json.Marshal(res.Record)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# run %s\n", rec)
	fmt.Fprintf(w, "# %d reps measured (%d traced), %d attempted, %d failed, failed_ratio %.4g\n",
		res.Record.Reps, res.Record.TracedReps, res.Attempted, res.Failed, res.failedRatio())
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		v := res.Metrics[d.name]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = jsonMetric{v, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

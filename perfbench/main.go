// Command perfbench is SPOT's benchmark. It drives the system only
// through its public APIs — an in-process spotd over loopback TCP, or
// the library detector — on one of three deployment-shaped workloads,
// checks every reply against a library replay, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run, which also writes its spans). The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload bulk-replicated|interactive|uniform-library --seed N --seconds S --trace 0|1
//
// Scratch files (checkpoints, spans) go under .bench_build/perfbench.
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// scratchRoot holds everything a run writes, relative to the
// repository root it runs from.
var scratchRoot = filepath.Join(".bench_build", "perfbench")

func main() {
	os.Exit(runCLI(os.Args[1:], os.Stdout, os.Stderr))
}

// runCLI runs the benchmark and returns the exit code: 0 with a
// correct result, 1 when the run failed or its output check did, 2 on
// a usage error.
func runCLI(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &opts{}
	fs.StringVar(&o.workload, "workload", "", "workload to run: bulk-replicated, interactive or uniform-library")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated input streams")
	seconds := fs.Float64("seconds", 10, "measured time to aim for; every run measures at least one window")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload bulk-replicated|interactive|uniform-library, --seconds > 0 and --trace 0|1")
		return 2
	}
	o.seconds = time.Duration(*seconds * float64(time.Second))
	o.trace = *trace == 1
	o.spans = filepath.Join(scratchRoot, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o.dir = dir
	var res *outcome
	d, err := workloads[o.workload](o)
	if err == nil {
		res, err = run(o, d)
	}
	if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, o, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res.mismatch != nil {
		fmt.Fprintln(stderr, "perfbench:", res.mismatch)
		return 1
	}
	return 0
}

// report prints one line per metric of the run's kind, then the JSON
// result line.
func report(w io.Writer, o *opts, res *outcome) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, def := range defs {
		v := res.metrics[def.name] // a layer the workload does not run reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", def.name, v)
		}
		metrics[def.name] = value{v, def.unit}
		fmt.Fprintf(w, "%-40s %16.6g %-6s (%s is better)\n", def.name, v, def.unit, def.better)
	}
	if !o.trace {
		// The wall-clock figures, for people reading the run; not gated
		// (see endToEnd).
		for _, def := range perLayer {
			if strings.HasPrefix(def.name, "load.") {
				fmt.Fprintf(w, "%-40s %16.6g %-6s (not gated)\n", def.name, res.metrics[def.name], def.unit)
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.mismatch == nil, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// Command bench is the wall-clock ledger of the lrcrace reproduction: five
// workloads, each measured end to end and layer by layer, each checked
// against committed goldens. See README.md in this directory.
//
//	go run -C bench . -workload <name|all> -seed <n> [-seconds s] [-trace 1] [-out ledger.json]
//	go run -C bench . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

var workloads = []workload{barrierWorkload, syncWorkload, checkWorkload, gofrontWorkload, serviceWorkload}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main without the process: it returns the exit code — 0, 1
// when an operation failed, a run broke or a ledger regressed, 2 for a bad
// command line.
func realMain(args []string, stdout, stderr io.Writer) int {
	code, err := run(args, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
	}
	return code
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wname   = fs.String("workload", "all", "workload to run: "+strings.Join(allWorkloads, ", ")+", or all")
		seed    = fs.Int64("seed", 1, "seed of the generated inputs: gofront schedules and traffic, service session order, the dsm-check address pattern, kernel inputs")
		seconds = fs.Float64("seconds", 20, "length of the timed region")
		trace   = fs.Int("trace", 0, "1: traced run (spans, scoped telemetry, kernel drivers) reporting the per-layer metrics; 0: the end-to-end metrics")
		out     = fs.String("out", "", "ledger file to add this run to (created if missing)")
		compare = fs.Bool("compare", false, "compare two ledger files given as arguments; non-zero exit on regression")
		writeG  = fs.Bool("write-golden", false, "fold what this run observes into golden.json instead of checking it")
		outDir  = fs.String("outdir", ".bench_out", "directory for traces and scratch data")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil // the flag set has printed it
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("-compare takes two ledger files")
		}
		return compareLedgers(fs.Arg(0), fs.Arg(1), stdout, stderr), nil
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	var todo []workload
	for _, w := range workloads {
		if *wname == "all" || *wname == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		return 2, fmt.Errorf("unknown workload %q (have %s, all)", *wname, strings.Join(allWorkloads, ", "))
	}

	g, err := loadGoldens(goldenJSON)
	if err != nil {
		return 2, err
	}
	g.recording = *writeG
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return 2, err
	}
	tmp, err := os.MkdirTemp(*outDir, "tmp-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: *seed, seconds: *seconds, trace: *trace != 0, golden: g, outDir: *outDir, tmp: tmp}

	code := 0
	for _, w := range todo {
		res, err := runWorkload(w, e)
		if err != nil {
			return 1, err
		}
		if err := printResult(stdout, w, res); err != nil {
			return 1, err
		}
		if !res.correct() {
			code = 1
		}
		if *out != "" {
			if err := appendLedger(*out, res); err != nil {
				return 1, err
			}
		}
	}
	if *writeG {
		if err := g.write("golden.json"); err != nil {
			return 1, err
		}
	}
	return code, nil
}

// printResult prints every metric by name with its unit and clock, then the
// one-line JSON summary the driver reads.
func printResult(w io.Writer, wl workload, r *result) error {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  iterations %d  timed %.2f s  speed factor %.3f  (one op = one %s)\n",
		r.Workload, r.Seed, r.Trace, r.Iterations, r.TimedS, r.SpeedFactor, wl.op)
	defs := defByName()
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s, d := r.Metrics[name], defs[name]
		line := fmt.Sprintf("  %-42s %16.6g %-6s %-9s %s", name, s.Value, s.Unit, d.Clock, d.Better)
		if s.N > 0 {
			line += fmt.Sprintf("  n=%d", s.N)
		}
		if s.HiP > 0 {
			line += fmt.Sprintf(" p%g=%.6g", s.HiP, s.Hi)
		}
		fmt.Fprintln(w, line)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	fmt.Fprintf(w, "  fail_share %d/%d\n", r.Failed, r.Attempted)

	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]driverMetric{}}
	for name, s := range r.Metrics {
		summary.Metrics[name] = driverMetric{s.Value, s.Unit}
	}
	b, err := json.Marshal(summary) // fails on a NaN or infinite value
	if err != nil {
		return fmt.Errorf("%s: %w", r.Workload, err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

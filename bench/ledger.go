package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// ledger is the file -out adds runs to and -compare reads: every run made,
// the box they ran on, and per (workload, metric) medians and quartiles.
type ledger struct {
	Schema  string    `json:"schema"`
	Claim   *string   `json:"claim"` // the gain this ledger's PR claims; null for none
	Env     envInfo   `json:"env"`
	Summary []sumRow  `json:"summary"`
	Runs    []*result `json:"runs"`
}

const ledgerSchema = "lrcrace-bench/1"

type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// sumRow summarizes one metric of one workload over the ledger's runs.
type sumRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Runs     int     `json:"runs"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
}

func currentEnv() envInfo {
	env := envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

func loadLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	l := &ledger{}
	if err := json.Unmarshal(b, l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if l.Schema != ledgerSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, l.Schema, ledgerSchema)
	}
	return l, nil
}

// values returns one metric of one workload over the ledger's runs of the
// given kind, in run order.
func (l *ledger) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range l.Runs {
		if s, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == traced {
			out = append(out, s.Value)
		}
	}
	return out
}

// summarize rebuilds the per-metric rows from the runs.
func (l *ledger) summarize() {
	l.Summary = nil
	for _, w := range allWorkloads {
		for _, kind := range []struct {
			traced bool
			defs   []metricDef
		}{{false, endToEnd}, {true, perLayer}} {
			for _, d := range kind.defs {
				xs := l.values(w, d.Name, kind.traced)
				if len(xs) == 0 {
					continue
				}
				s := sorted(xs)
				q1, q3 := quartiles(xs)
				l.Summary = append(l.Summary, sumRow{Workload: w, Metric: d.Name, Unit: d.Unit, Runs: len(xs),
					Median: median(xs), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1]})
			}
		}
	}
}

// appendLedger adds r to the ledger at path, creating it if missing.
func appendLedger(path string, r *result) error {
	l, err := loadLedger(path)
	if errors.Is(err, fs.ErrNotExist) {
		l, err = &ledger{Schema: ledgerSchema, Env: currentEnv()}, nil
	}
	if err != nil {
		return err
	}
	l.Runs = append(l.Runs, r)
	l.summarize()
	b, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareLedgers prints one row per (end-to-end metric, workload) with both
// medians, quartiles, the change and the declared bound, and one row per
// exact metric that changed. It returns 1 on a regression or a changed
// exact metric.
func compareLedgers(pathA, pathB string, stdout, stderr io.Writer) int {
	var ls [2]*ledger
	for i, path := range []string{pathA, pathB} {
		l, err := loadLedger(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ls[i] = l
	}
	return compare(ls[0], ls[1], stdout)
}

func compare(a, b *ledger, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-14s %-20s %14s %27s %14s %27s %9s %6s  %s\n",
		"workload", "metric", "median A", "[q1, q3] A", "median B", "[q1, q3] B", "worse by", "bound", "verdict")
	for _, wl := range allWorkloads {
		for _, d := range endToEnd {
			xa, xb := a.values(wl, d.Name, false), b.values(wl, d.Name, false)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			a1, a3 := quartiles(xa)
			b1, b3 := quartiles(xb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			spread := math.Max((a3-a1)/ma, (b3-b1)/mb)
			verdict := "unchanged"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSION"
				code = 1
			case allBetter(xa, xb, d.Better):
				verdict = "improved"
			case spread > d.Bound:
				// The runs of one side disagree by more than the bound:
				// "no worse than the bound" cannot be told from these runs.
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6g %27s %14.6g %27s %+8.2f%% %5.0f%%  %s\n",
				wl, d.Name, ma, fmt.Sprintf("[%.6g, %.6g]", a1, a3), mb, fmt.Sprintf("[%.6g, %.6g]", b1, b3),
				100*worse, 100*d.Bound, verdict)
		}
	}

	// Exact metrics: a count or simulated statistic that repeated exactly
	// within each ledger must also be equal across them.
	var changed []string
	for _, wl := range allWorkloads {
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			va, oka := constant(a.values(wl, d.Name, true))
			vb, okb := constant(b.values(wl, d.Name, true))
			if oka && okb && va != vb {
				changed = append(changed, fmt.Sprintf("%-14s %-40s %.10g -> %.10g  CHANGED", wl, d.Name, va, vb))
			}
		}
	}
	sort.Strings(changed)
	for _, line := range changed {
		fmt.Fprintln(w, line)
		code = 1
	}
	if len(changed) == 0 {
		fmt.Fprintln(w, "exact metrics: every count and simulated statistic that repeats within both ledgers is equal across them")
	}
	return code
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// constant reports the single value xs repeats, if it does.
func constant(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	for _, x := range xs[1:] {
		if x != xs[0] {
			return 0, false
		}
	}
	return xs[0], true
}

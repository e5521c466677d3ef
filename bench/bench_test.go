package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the declared metric tables")

// benchmarkJSON is the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []jsonWorkload  `json:"workloads"`
	EndToEnd   []jsonEndToEnd  `json:"end_to_end"`
	PerLayer   []jsonLayerItem `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonLayerItem struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// declared builds the contract file from the tables in metrics.go.
func declared() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 20,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonEndToEnd{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonLayerItem{d.Name, d.Unit, d.Better})
	}
	return b
}

// TestBenchmarkJSON holds BENCHMARK.json to the declared tables and the
// tables to the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(declared(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go; run `go test -run TestBenchmarkJSON -update`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	known := map[string]bool{}
	for i, w := range workloads {
		checkName(w.name)
		known[w.name] = true
		if w.name != allWorkloads[i] {
			t.Errorf("workload %d is %q, allWorkloads says %q", i, w.name, allWorkloads[i])
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") || w.why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		checkName(d.Name)
		e2e[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Clock == "" || d.Doc == "" {
			t.Errorf("%s: clock and doc are required", d.Name)
		}
	}
	if !e2e["setup_s"] {
		t.Error("setup_s is not declared")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range perLayer {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Clock == "" || d.Doc == "" || d.Layer == "" {
			t.Errorf("%s: clock, doc and layer are required", d.Name)
		}
		// Every per-layer metric names the end-to-end metric it should
		// move and the workloads it should move it on.
		if !e2e[d.Moves] {
			t.Errorf("%s: moves %q, which is not an end-to-end metric", d.Name, d.Moves)
		}
		for _, w := range append(append([]string(nil), d.On...), d.From...) {
			if !known[w] {
				t.Errorf("%s: names unknown workload %q", d.Name, w)
			}
		}
	}
}

// metricTable renders the per-layer declarations as the README's table.
func metricTable() string {
	var b strings.Builder
	b.WriteString("\n| name | unit · clock · better | moves → on | from | what |\n|---|---|---|---|---|\n")
	for _, d := range perLayer {
		on := "none"
		if len(d.On) > 0 {
			on = "`" + strings.Join(d.On, "`, `") + "`"
		}
		from := "kernel driver"
		if d.From != nil {
			from = "`" + strings.Join(d.From, "`, `") + "`"
			if len(d.From) == len(allWorkloads) {
				from = "every workload"
			}
		}
		exact := ""
		if d.Exact {
			exact = " · exact"
		}
		fmt.Fprintf(&b, "| `%s` | %s · %s · %s%s | `%s` → %s | %s | %s |\n",
			d.Name, d.Unit, d.Clock, d.Better, exact, d.Moves, on, from, d.Doc)
	}
	return b.String()
}

// TestReadmeMetricTable keeps README.md's per-layer table equal to the
// declarations in metrics.go.
func TestReadmeMetricTable(t *testing.T) {
	const begin, end = "<!-- metrics:begin -->", "<!-- metrics:end -->"
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	i, j := strings.Index(s, begin), strings.Index(s, end)
	if i < 0 || j < i {
		t.Fatalf("README.md has no %s ... %s section", begin, end)
	}
	i += len(begin)
	want := metricTable()
	if *update && s[i:j] != want {
		if err := os.WriteFile("README.md", []byte(s[:i]+want+s[j:]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if s[i:j] != want {
		t.Errorf("README.md's per-layer table differs from metrics.go; run `go test -run TestReadmeMetricTable -update`")
	}
	for _, d := range endToEnd {
		if !strings.Contains(s, "`"+d.Name+"`") {
			t.Errorf("README.md does not mention end-to-end metric %s", d.Name)
		}
	}
}

func metricNames(m map[string]sample) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs a tiny iteration of every workload, untraced and traced,
// and checks the emitted metric sets against the declared ones.
func TestSmoke(t *testing.T) {
	g, err := loadGoldens(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	var wantE2E, wantLayer []string
	for _, d := range endToEnd {
		wantE2E = append(wantE2E, d.Name)
	}
	for _, d := range perLayer {
		wantLayer = append(wantLayer, d.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)

	dir := t.TempDir()
	e := &env{seed: 1, tiny: true, golden: g, outDir: dir, tmp: dir}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e.trace = traced
			res, err := runWorkload(w, e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.correct() || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			want := wantE2E
			if traced {
				want = wantLayer
			}
			if got := metricNames(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%v: emitted %v, declared %v", w.name, traced, got, want)
			}
			for name, s := range res.Metrics {
				if !traced && s.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v; they must never be 0", w.name, name, s.Value)
				}
			}
			var out bytes.Buffer
			if err := printResult(&out, w, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last output line is not the JSON summary: %v", w.name, err)
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: summary line has %d metrics, want %d", w.name, traced, len(last.Metrics), len(want))
			}
		}
		// The traced run's spans load as Chrome trace-event JSON.
		b, err := os.ReadFile(filepath.Join(dir, "traces", w.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string
				Ph   string
				Dur  float64
			}
		}
		if err := json.Unmarshal(b, &tr); err != nil || len(tr.TraceEvents) == 0 {
			t.Errorf("%s: trace does not load (%v) or is empty", w.name, err)
		}
	}
}

// TestCorruptedGolden edits one golden value by hand and expects the
// command to count failures and exit non-zero.
func TestCorruptedGolden(t *testing.T) {
	g, err := loadGoldens(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	key := wSync + "/Water/sw/on" // the workload with the shortest full-size iteration
	entry, ok := g.Runs[key]
	if !ok {
		t.Fatalf("golden.json has no entry %s", key)
	}
	entry.Exact["intervals"]++
	corrupted, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	saved := goldenJSON
	goldenJSON = corrupted
	defer func() { goldenJSON = saved }()

	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-workload", wSync, "-seconds", "0", "-outdir", t.TempDir()}, &stdout, &stderr)
	if code == 0 {
		t.Errorf("exit code 0 with a corrupted golden\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), `"correct":false`) || !strings.Contains(stdout.String(), "intervals = 1176, golden 1177") {
		t.Errorf("the corrupted value was not reported:\n%s%s", stdout.String(), stderr.String())
	}
}

// TestCompare exercises the verdicts of -compare on hand-made ledgers.
func TestCompare(t *testing.T) {
	mk := func(vals []float64, msgs float64) *ledger {
		l := &ledger{Schema: ledgerSchema}
		for _, v := range vals {
			l.Runs = append(l.Runs,
				&result{Workload: wBarrier, Metrics: map[string]sample{opNS: {Value: v, Unit: "ns"}}},
				&result{Workload: wBarrier, Trace: true, Metrics: map[string]sample{"simnet.msgs": {Value: msgs}}})
		}
		return l
	}
	base := mk([]float64{50, 51, 52, 50.5, 51.5}, 3608)
	for _, c := range []struct {
		name    string
		b       *ledger
		code    int
		verdict string
	}{
		{"same", mk([]float64{50.2, 51, 52, 50.4, 51.6}, 3608), 0, "unchanged"},
		{"slower", mk([]float64{70, 71, 72, 70.5, 71.5}, 3608), 1, "REGRESSION"},
		{"faster", mk([]float64{40, 41, 42, 40.5, 41.5}, 3608), 0, "improved"},
		{"noisy", mk([]float64{35, 51, 67, 40, 60}, 3608), 0, "unresolved"},
		{"count moved", mk([]float64{50, 51, 52, 50.5, 51.5}, 3610), 1, "CHANGED"},
	} {
		var out bytes.Buffer
		if code := compare(base, c.b, &out); code != c.code || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: exit %d, want %d with verdict %s:\n%s", c.name, code, c.code, c.verdict, out.String())
		}
	}
}

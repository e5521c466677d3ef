package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// planFFTSOR is the deterministic test grid: barrier-only applications
// (FFT, SOR) whose virtual-time simulation is schedule-independent, so
// canonical metrics are byte-stable across runs.
func planFFTSOR() *Plan {
	return &Plan{
		Apps:   []string{"FFT", "SOR"},
		Scales: []float64{0.5},
		Procs:  []int{2},
		Detect: []bool{true, false},
	}
}

func TestExpand(t *testing.T) {
	p := &Plan{
		Apps:    []string{"TSP", "Water"},
		Procs:   []int{2, 4},
		Detect:  []bool{true, false},
		Sharded: []bool{false, true},
	}
	cells, err := p.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// sharded=true is skipped for detect=false: 2 apps × 2 procs × (2·2 − 1).
	if want := 2 * 2 * 3; len(cells) != want {
		t.Fatalf("expanded to %d cells, want %d", len(cells), want)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.ID] {
			t.Fatalf("duplicate cell ID %s", c.ID)
		}
		seen[c.ID] = true
		if c.Sharded && !*c.Detect {
			t.Fatalf("invalid combination expanded: %s", c.ID)
		}
	}

	if _, err := (&Plan{}).Expand(); err == nil {
		t.Error("empty plan expanded without error")
	}
	if _, err := (&Plan{Apps: []string{"X"}, Protocols: []string{"bogus"}}).Expand(); err == nil {
		t.Error("bogus protocol expanded without error")
	}
	if _, err := (&Plan{Apps: []string{"X", "X"}}).Expand(); err == nil {
		t.Error("repeated axis value expanded without error")
	}
}

func TestExpandBarrierTreeAxis(t *testing.T) {
	p := &Plan{
		Apps:         []string{"Water"},
		Procs:        []int{4, 8},
		BarrierTrees: []int{0, 2, 4},
	}
	cells, err := p.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 3; len(cells) != want {
		t.Fatalf("expanded to %d cells, want %d", len(cells), want)
	}
	var flat, bt2 bool
	for _, c := range cells {
		rc, err := c.RunConfig()
		if err != nil {
			t.Fatal(err)
		}
		if rc.BarrierTree != c.BarrierTree {
			t.Fatalf("cell %s: RunConfig.DSM.BarrierTree = %d, want %d", c.ID, rc.DSM.BarrierTree, c.BarrierTree)
		}
		switch c.BarrierTree {
		case 0:
			// Flat cells keep their pre-axis names so existing sweep
			// checkpoints stay resumable.
			if strings.Contains(c.ID, "-bt") {
				t.Fatalf("flat cell ID %s carries a tree suffix", c.ID)
			}
			flat = true
		case 2:
			if !strings.Contains(c.ID, "-bt2") {
				t.Fatalf("tree cell ID %s missing -bt2 suffix", c.ID)
			}
			bt2 = true
		}
	}
	if !flat || !bt2 {
		t.Fatal("axis values missing from the expansion")
	}

	if _, err := (&Plan{Apps: []string{"Water"}, BarrierTrees: []int{1}}).Expand(); err == nil {
		t.Error("arity-1 tree expanded without error")
	}
	if _, err := (&Plan{Apps: []string{"Water"}, BarrierTrees: []int{-2}}).Expand(); err == nil {
		t.Error("negative arity expanded without error")
	}
}

func TestFingerprintStability(t *testing.T) {
	a, b := planFFTSOR(), planFFTSOR()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal plans fingerprint differently")
	}
	b.Procs = []int{4}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different plans fingerprint equal")
	}
	// Explicit defaults fingerprint like implied ones: same grid, same
	// identity.
	c := planFFTSOR()
	c.Protocols = []string{"sw"}
	if a.Fingerprint() != c.Fingerprint() {
		t.Error("default and explicit-default plans fingerprint differently")
	}
}

func runSweep(t *testing.T, plan *Plan, opts Options) (*Sweep, *Summary) {
	t.Helper()
	s, err := New(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return s, sum
}

func metricsBytes(t *testing.T, s *Sweep) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterministicMetrics is the acceptance bar for the aggregated
// document: two executions of the same deterministic plan (same seeds,
// concurrent workers both times) produce byte-identical metrics JSON.
func TestDeterministicMetrics(t *testing.T) {
	s1, sum1 := runSweep(t, planFFTSOR(), Options{Workers: 4})
	s2, sum2 := runSweep(t, planFFTSOR(), Options{Workers: 4})
	if sum1.OK != sum1.Total || sum2.OK != sum2.Total {
		t.Fatalf("sweeps not clean: %+v / %+v", sum1, sum2)
	}
	b1, b2 := metricsBytes(t, s1), metricsBytes(t, s2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("aggregated metrics JSON differs between identical runs:\nrun1 %d bytes, run2 %d bytes", len(b1), len(b2))
	}
}

// TestResume simulates an interrupted grid: a checkpoint directory holding
// only some cells' results must cause a restart to re-execute exactly the
// missing cells, and the resumed aggregate must equal a from-scratch run.
func TestResume(t *testing.T) {
	plan := planFFTSOR()

	// Reference: the full grid from scratch.
	dirA := t.TempDir()
	sA, sumA := runSweep(t, plan, Options{Workers: 4, Dir: dirA})
	if sumA.OK != sumA.Total {
		t.Fatalf("reference sweep not clean: %+v", sumA)
	}

	// Interrupted state: a directory with the manifest and half the cells.
	dirB := t.TempDir()
	if _, err := New(plan, Options{Dir: dirB}); err != nil {
		t.Fatal(err)
	}
	cells, _ := plan.Expand()
	copied := map[string]time.Time{}
	for i, c := range cells {
		if i%2 != 0 {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dirA, "cells", c.ID+".json"))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dirB, "cells", c.ID+".json")
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
		st, _ := os.Stat(dst)
		copied[c.ID] = st.ModTime()
	}

	// Resume: only the missing cells may execute.
	sB, err := New(plan, Options{Workers: 4, Dir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	pre := sB.Summary()
	preloaded := pre.Total - pre.Missing
	if preloaded != len(copied) {
		t.Fatalf("resume loaded %d cells, want %d", preloaded, len(copied))
	}
	sumB, err := sB.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sumB.OK != sumB.Total || sumB.Missing != 0 {
		t.Fatalf("resumed sweep not clean: %+v", sumB)
	}
	for id, mtime := range copied {
		st, err := os.Stat(filepath.Join(dirB, "cells", id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !st.ModTime().Equal(mtime) {
			t.Errorf("cell %s was re-written on resume; preloaded results must not re-execute", id)
		}
	}

	if !bytes.Equal(metricsBytes(t, sA), metricsBytes(t, sB)) {
		t.Error("resumed aggregate differs from the from-scratch run")
	}

	// A different plan must refuse the directory instead of mixing grids.
	other := planFFTSOR()
	other.Procs = []int{4}
	if _, err := New(other, Options{Dir: dirB}); err == nil {
		t.Error("New accepted a checkpoint dir holding a different plan")
	}
}

// TestCellFailureIsolation: a cell that cannot run (unknown application)
// is a failed cell, not a failed sweep.
func TestCellFailureIsolation(t *testing.T) {
	plan := &Plan{Apps: []string{"NoSuchApp", "SOR"}, Scales: []float64{0.5}, Procs: []int{2}}
	_, sum := runSweep(t, plan, Options{Workers: 2})
	if sum.OK != 1 || sum.Failed != 1 {
		t.Fatalf("got %d ok / %d failed, want 1/1 (%+v)", sum.OK, sum.Failed, sum)
	}
}

// TestCellTimeout: a cell exceeding the deadline is recorded as timed out
// while the rest of the grid completes.
func TestCellTimeout(t *testing.T) {
	// SOR at scale 4 takes about a second alone with the Go race detector
	// on; TSP at the same scale (14 cities) searches for several seconds
	// and keeps running after it is abandoned. One worker runs SOR first,
	// so the TSP cell never shares the CPUs with the cell that must finish.
	plan := &Plan{Apps: []string{"SOR", "TSP"}, Scales: []float64{4}, Procs: []int{2}}
	s, err := New(plan, Options{Workers: 1, CellTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	status := map[string]Status{}
	for _, r := range sum.Cells {
		status[r.ID] = r.Status
	}
	if got := status["TSP-s4-p2-sw-d1-sh0-ck1-seed0"]; got != StatusTimeout {
		t.Errorf("TSP cell status %q, want timeout", got)
	}
	if got := status["SOR-s4-p2-sw-d1-sh0-ck1-seed0"]; got != StatusOK {
		t.Errorf("SOR cell status %q, want ok (timeout must not poison the sweep)", got)
	}
}

// TestRunWithExecutorError: a cell the executor could not run is not a
// result — it stays pending for resume and surfaces as RunWith's error,
// but only after the pool has drained, so the other cells still land; a
// result returned under another cell's ID is refused the same way. While
// an executor holds a cell, /sweep shows it running.
func TestRunWithExecutorError(t *testing.T) {
	plan := planFFTSOR()
	dir := t.TempDir()
	s, err := New(plan, Options{Workers: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cells := s.Cells()
	poisoned, mislabeled := cells[0].ID, cells[1].ID
	errNode := errors.New("node unreachable")
	sum, err := s.RunWith(context.Background(), func(ctx context.Context, c Cell) (*CellResult, error) {
		running := false
		for _, id := range s.Summary().Running {
			running = running || id == c.ID
		}
		if !running {
			t.Errorf("cell %s not shown running while its executor runs", c.ID)
		}
		switch c.ID {
		case poisoned:
			return nil, errNode
		case mislabeled:
			return &CellResult{ID: poisoned, Status: StatusOK}, nil
		}
		return &CellResult{ID: c.ID, Status: StatusOK}, nil
	})
	if err == nil || !(errors.Is(err, errNode) || strings.Contains(err.Error(), mislabeled)) {
		t.Fatalf("RunWith error = %v, want the first of the two cell errors", err)
	}
	if sum.OK != 2 || sum.Missing != 2 {
		t.Fatalf("after a poisoned and a mislabeled cell: %+v, want 2 ok, 2 missing", sum)
	}
	if running := s.Summary().Running; len(running) != 0 {
		t.Errorf("%d cells still shown running after the pool drained", len(running))
	}

	// Resume re-runs exactly the two cells that never got a result.
	resumed, err := New(plan, Options{Workers: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var reran []string
	var mu sync.Mutex
	sum, err = resumed.RunWith(context.Background(), func(ctx context.Context, c Cell) (*CellResult, error) {
		mu.Lock()
		reran = append(reran, c.ID)
		mu.Unlock()
		return &CellResult{ID: c.ID, Status: StatusOK}, nil
	})
	if err != nil || sum.OK != 4 {
		t.Fatalf("resume: %v, %+v", err, sum)
	}
	want := []string{poisoned, mislabeled}
	sort.Strings(reran)
	sort.Strings(want)
	if strings.Join(reran, " ") != strings.Join(want, " ") {
		t.Errorf("resume re-ran %v, want %v", reran, want)
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPlanFileUnknownField: a plan file with a misspelled axis is refused
// with an error naming it, instead of running the grid without that axis.
func TestPlanFileUnknownField(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	p, err := buildPlan(write("ok.json", `{"apps":["FFT"],"barrier_trees":[0,2]}`), axisFlags{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.BarrierTrees) != 2 {
		t.Fatalf("barrier_trees = %v, want [0 2]", p.BarrierTrees)
	}

	_, err = buildPlan(write("typo.json", `{"apps":["FFT"],"barrier_tree":[0,2]}`), axisFlags{})
	if err == nil || !strings.Contains(err.Error(), `"barrier_tree"`) {
		t.Fatalf("misspelled axis: err = %v, want one naming \"barrier_tree\"", err)
	}
}

package main

import (
	"os"
	"path/filepath"
	"testing"

	"lrcrace/internal/telemetry/promtest"
)

func TestIndent(t *testing.T) {
	got := indent("a\nb\n", "> ")
	if got != "> a\n> b" {
		t.Errorf("indent = %q", got)
	}
	if got := indent("x", "  "); got != "  x" {
		t.Errorf("single line = %q", got)
	}
}

func TestCanonical(t *testing.T) {
	for in, want := range map[string]string{
		"tsp": "TSP", "TSP": "TSP", "water": "Water", "fft": "FFT", "sor": "SOR",
		"kv": "KV", "KV": "KV", "sessions": "Sessions",
	} {
		if got := canonical(in); got != want {
			t.Errorf("canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMetricsOutExposition runs the command once with -metrics-out and
// holds the file it writes to the exposition checker every /metrics
// surface in the repo passes.
func TestMetricsOutExposition(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.prom")
	os.Args = []string{"racefind", "-app", "SOR", "-procs", "2", "-scale", "0.1", "-metrics-out", out}
	main()
	body, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	types := promtest.Check(t, string(body))
	if types["dsm_barrier_wait_ns"] != "histogram" || types["run_virtual_ns"] != "gauge" {
		t.Errorf("family types = %v", types)
	}
}

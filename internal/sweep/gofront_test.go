package sweep

import (
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"lrcrace/internal/gofront"
	"lrcrace/internal/harness"
	"lrcrace/internal/telemetry"
)

// panicWorkload names a test-only gofront workload whose spawned goroutine
// closes a channel the root already closed.
const panicWorkload = "ClosesClosedChan"

func init() {
	gofront.RegisterWorkload(panicWorkload, "test only: a goroutine closes a closed channel",
		func(cfg gofront.WorkloadConfig) (*gofront.Result, error) {
			p := gofront.New(gofront.Config{Seed: cfg.Seed, Detect: cfg.Detect, Recorder: cfg.Recorder})
			ch := p.NewChan(0)
			return p.Run(func(g *gofront.G) {
				ch.Close(g)
				g.Join(g.Go(func(g *gofront.G) { ch.Close(g) }))
			}), nil
		})
}

// TestExpandGoFrontAxes: a mixed plan pairs DSM apps with dsm cells and
// gofront workloads with go cells, go-only knobs never leak onto dsm cells,
// and the seed axis survives for go frontends.
func TestExpandGoFrontAxes(t *testing.T) {
	p := &Plan{
		Apps:      []string{"TSP", "KV"},
		Frontends: []string{"dsm", "go"},
		Procs:     []int{2, 4},
		HotSkews:  []float64{0, 0.8},
		Racy:      []bool{false, true},
		Seeds:     []int64{0, 1},
	}
	cells, err := p.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// TSP: dsm only, hk=0 only, racy=false only → 2 procs × 2 seeds = 4.
	// KV: go only → 2 procs × 2 hk × 2 racy × 2 seeds = 16.
	if want := 4 + 16; len(cells) != want {
		t.Fatalf("expanded to %d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		switch c.App {
		case "TSP":
			if c.Frontend != "" || c.HotSkew != 0 || c.Racy {
				t.Fatalf("go-frontend knobs leaked onto dsm cell %s", c.ID)
			}
			if strings.Contains(c.ID, "-go") {
				t.Fatalf("dsm cell ID carries go suffix: %s", c.ID)
			}
		case "KV":
			if c.Frontend != "go" {
				t.Fatalf("KV cell not on go frontend: %s", c.ID)
			}
			if !strings.Contains(c.ID, "-go") {
				t.Fatalf("go cell ID missing go suffix: %s", c.ID)
			}
			cfg, err := c.RunConfig()
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Frontend != "go" || cfg.Seed != c.Seed ||
				cfg.HotKeySkew != c.HotSkew || cfg.Racy != c.Racy {
				t.Fatalf("cell %s mapped to %+v", c.ID, cfg)
			}
		}
	}

	if _, err := (&Plan{Apps: []string{"KV"}, Frontends: []string{"zig"}}).Expand(); err == nil {
		t.Error("bogus frontend expanded without error")
	}
	if _, err := (&Plan{Apps: []string{"KV"}, Frontends: []string{"go"}, HotSkews: []float64{1.5}}).Expand(); err == nil {
		t.Error("out-of-range hot skew expanded without error")
	}
}

// TestDsmCellIDsUnchanged pins the dsm cell naming: adding the go-frontend
// axes must not rename cells of pre-existing sweep checkpoints.
func TestDsmCellIDsUnchanged(t *testing.T) {
	p := &Plan{Apps: []string{"FFT"}, Scales: []float64{0.25}, Procs: []int{2}}
	cells, err := p.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].ID != "FFT-s0.25-p2-sw-d1-sh0-ck1-seed0" {
		t.Fatalf("dsm cell ID drifted: %+v", cells)
	}
	// And the seed axis is still collapsed for non-chaotic dsm plans.
	p.Seeds = []int64{0, 1, 2}
	cells, err = p.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("seed axis not collapsed for deterministic dsm plan: %d cells", len(cells))
	}
}

// TestGoFrontSweepEndToEnd runs a small KV grid through the worker pool and
// checks that every cell succeeded with gofront metrics attached, and that
// racy cells found races while clean cells did not.
func TestGoFrontSweepEndToEnd(t *testing.T) {
	p := &Plan{
		Apps:      []string{"KV", "Sessions"},
		Frontends: []string{"go"},
		Procs:     []int{3},
		HotSkews:  []float64{0.6},
		Racy:      []bool{false, true},
		Seeds:     []int64{0, 1},
	}
	s, err := New(p, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.OK != 8 {
		t.Fatalf("summary: %+v, want 8 OK cells", sum)
	}
	racyFound := 0
	for _, c := range sum.Cells {
		if c.Status != StatusOK {
			t.Fatalf("cell %s: %s (%s)", c.ID, c.Status, c.Error)
		}
		if c.Metrics == nil || c.Metrics.CounterTotal("gofront_intervals_total") == 0 {
			t.Fatalf("cell %s missing gofront metrics", c.ID)
		}
		racy := strings.Contains(c.ID, "-racy")
		if !racy && c.Races != 0 {
			t.Fatalf("clean cell %s reported %d races", c.ID, c.Races)
		}
		if racy && c.Races > 0 {
			racyFound++
		}
	}
	if racyFound == 0 {
		t.Fatal("no racy cell found a race")
	}
}

// TestGoFrontModelPanicFailsCell: a panic inside a modeled goroutine
// reaches RunGuarded's recover, so the cell fails with the model's message
// and the process lives on.
func TestGoFrontModelPanicFailsCell(t *testing.T) {
	cfg := harness.RunConfig{App: panicWorkload, Frontend: "go", Procs: 2, Detect: true}
	rec := telemetry.New(telemetry.Config{Procs: cfg.Procs, Cap: TelemetryCap, FlightSink: io.Discard})
	res, races := RunGuarded(context.Background(), "panic-cell", cfg, rec, time.Minute)
	if res == nil || res.Status != StatusPanic || !strings.Contains(res.Error, "gofront: close of closed channel 0") {
		t.Fatalf("cell result %+v, want a panic naming the closed channel", res)
	}
	if races != nil {
		t.Fatalf("a panicked cell returned %d races", len(races))
	}
}

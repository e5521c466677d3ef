package tsp

import (
	"testing"

	"lrcrace/internal/dsm"
	"lrcrace/internal/race"
)

func runTSP(t *testing.T, cfg Config, procs int, detect bool) (*TSP, *dsm.System) {
	t.Helper()
	app := New(cfg)
	sys, err := dsm.New(dsm.Config{
		NumProcs:   procs,
		SharedSize: app.SharedBytes(),
		Detect:     detect,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Setup(sys); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(app.Worker); err != nil {
		t.Fatal(err)
	}
	return app, sys
}

func TestTSPFindsOptimum(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		app, sys := runTSP(t, Config{Cities: 8, PrefixLen: 3}, procs, false)
		if err := app.Verify(sys); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
	}
}

// TestTSPBoundRacesDetected reproduces the paper's headline TSP finding:
// the unsynchronized reads of the global tour bound are flagged as
// read-write races on exactly that variable.
func TestTSPBoundRacesDetected(t *testing.T) {
	app, sys := runTSP(t, Config{Cities: 10, PrefixLen: 2}, 4, true)
	if err := app.Verify(sys); err != nil {
		t.Fatal(err) // the race is benign: the answer must still be right
	}
	races := race.DedupByAddr(sys.Races())
	if len(races) == 0 {
		t.Fatal("no races detected in TSP")
	}
	for _, r := range races {
		if r.Addr != app.RacyBoundAddr() {
			sym, _ := sys.SymbolAt(r.Addr)
			t.Errorf("race at %#x (%s), want only minTour", r.Addr, sym.Name)
		}
		if r.WriteWrite() {
			t.Errorf("TSP bound race should be read-write, got %v", r)
		}
	}
	// Symbol resolution names the variable, as §6.1 describes.
	sym, ok := sys.SymbolAt(app.RacyBoundAddr())
	if !ok || sym.Name != "minTour" {
		t.Errorf("symbol lookup = %+v, %v", sym, ok)
	}
}

func TestTSPDistProperties(t *testing.T) {
	for i := 0; i < 12; i++ {
		if Dist(i, i) != 0 {
			t.Errorf("Dist(%d,%d) != 0", i, i)
		}
		for j := 0; j < 12; j++ {
			if Dist(i, j) != Dist(j, i) {
				t.Errorf("asymmetric: Dist(%d,%d)=%d Dist(%d,%d)=%d", i, j, Dist(i, j), j, i, Dist(j, i))
			}
			if i != j && Dist(i, j) <= 0 {
				t.Errorf("Dist(%d,%d) = %d", i, j, Dist(i, j))
			}
		}
	}
}

func TestTSPConfig(t *testing.T) {
	app := New(Config{})
	if app.cfg.Cities != 11 || app.cfg.PrefixLen != 4 {
		t.Errorf("defaults: %+v", app.cfg)
	}
	paper := New(Config{Scale: 9})
	if paper.cfg.Cities != 19 {
		t.Errorf("paper scale cities = %d", paper.cfg.Cities)
	}
	if app.SyncKinds() != "lock" {
		t.Error("TSP should be lock-synchronized")
	}
	tiny := New(Config{Cities: 5, PrefixLen: 9})
	if tiny.cfg.PrefixLen != 4 {
		t.Errorf("prefix clamp: %d", tiny.cfg.PrefixLen)
	}
}

func TestTSPNumPrefixes(t *testing.T) {
	app := New(Config{Cities: 8, PrefixLen: 3})
	// Queue capacity: prefixes of length 1..3 from city 0: 1 + 7 + 42 = 50.
	if app.maxQ != 1+7+42 {
		t.Errorf("maxQ = %d, want 50", app.maxQ)
	}
}

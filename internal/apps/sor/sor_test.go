package sor

import (
	"reflect"
	"sync"
	"testing"

	"lrcrace/internal/dsm"
)

func runSOR(t *testing.T, cfg Config, procs int, proto dsm.ProtocolKind, detect bool) (*SOR, *dsm.System) {
	t.Helper()
	app := New(cfg)
	sys, err := dsm.New(dsm.Config{
		NumProcs:   procs,
		SharedSize: app.SharedBytes(),
		Protocol:   proto,
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

func TestSORMatchesReference(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		app, sys := runSOR(t, Config{Rows: 24, Cols: 24, Iters: 5}, procs, dsm.SingleWriter, true)
		if err := app.Verify(sys); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
		if races := sys.Races(); len(races) != 0 {
			t.Errorf("procs=%d: SOR reported races: %v", procs, races[0])
		}
	}
}

func TestSORMultiWriter(t *testing.T) {
	app, sys := runSOR(t, Config{Rows: 24, Cols: 24, Iters: 4}, 3, dsm.MultiWriter, true)
	if err := app.Verify(sys); err != nil {
		t.Error(err)
	}
	if len(sys.Races()) != 0 {
		t.Errorf("races: %v", sys.Races())
	}
}

// TestSORNoUnsynchronizedSharing reproduces the paper's Table 3 row: zero
// intervals involved in concurrent overlapping pairs, zero bitmaps fetched.
func TestSORNoUnsynchronizedSharing(t *testing.T) {
	_, sys := runSOR(t, Config{Rows: 32, Cols: 32, Iters: 4}, 4, dsm.SingleWriter, true)
	ds := sys.DetectorStats()
	if ds.IntervalsInvolved != 0 {
		t.Errorf("IntervalsInvolved = %d, want 0 (paper: SOR has no unsynchronized sharing)", ds.IntervalsInvolved)
	}
	if ds.BitmapsCompared != 0 {
		t.Errorf("BitmapsCompared = %d, want 0", ds.BitmapsCompared)
	}
	if ds.IntervalsTotal == 0 || ds.Epochs == 0 {
		t.Errorf("detector saw no work: %+v", ds)
	}
}

func TestSORConfigDefaults(t *testing.T) {
	app := New(Config{})
	if app.cfg.Rows != 96 || app.cfg.Iters != 8 {
		t.Errorf("defaults: %+v", app.cfg)
	}
	if app.InputDesc() != "96x96" || app.SyncKinds() != "barrier" || app.Name() != "SOR" {
		t.Errorf("descriptors wrong: %q %q", app.InputDesc(), app.SyncKinds())
	}
	scaled := New(Config{Scale: 28.4})
	if scaled.cfg.Rows < 500 || scaled.cfg.Rows > 520 {
		t.Errorf("paper scale gives %d rows, want ≈512", scaled.cfg.Rows)
	}
}

// TestReferenceComputedOncePerShape: Verify's reference grid is computed
// once per (Rows, Cols, Iters) and shared, also by instances asking at the
// same time, and it is the grid Reference computes.
func TestReferenceComputedOncePerShape(t *testing.T) {
	cfg := Config{Rows: 16, Cols: 20, Iters: 3}
	got := make([][][]float64, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = New(cfg).reference()
		}()
	}
	wg.Wait()
	for i, r := range got {
		if &r[0] != &got[0][0] {
			t.Fatalf("instance %d computed its own reference", i)
		}
	}
	if !reflect.DeepEqual(got[0], New(cfg).Reference()) {
		t.Fatal("shared reference differs from Reference")
	}
	for _, c := range []Config{{Rows: 18, Cols: 20, Iters: 3}, {Rows: 16, Cols: 22, Iters: 3}, {Rows: 16, Cols: 20, Iters: 4}} {
		if other := New(c).reference(); &other[0] == &got[0][0] || reflect.DeepEqual(other, got[0]) {
			t.Fatalf("%+v shares the reference of %+v", c, cfg)
		}
	}
}

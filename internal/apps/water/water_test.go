package water

import (
	"reflect"
	"sync"
	"testing"

	"lrcrace/internal/dsm"
	"lrcrace/internal/race"
)

func runWater(t *testing.T, cfg Config, procs int, detect bool) (*Water, *dsm.System) {
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

func TestWaterMatchesReference(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		app, sys := runWater(t, Config{Molecules: 16, Steps: 2}, procs, false)
		if err := app.Verify(sys); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
	}
}

// TestWaterBugDetected reproduces the paper's Water finding: a write-write
// race (the Splash2 bug) on the unprotected virial accumulator.
func TestWaterBugDetected(t *testing.T) {
	app, sys := runWater(t, Config{Molecules: 16, Steps: 2}, 4, true)
	if err := app.Verify(sys); err != nil {
		t.Fatal(err) // the bug corrupts only the statistic, not the trajectory
	}
	races := race.DedupByAddr(sys.Races())
	if len(races) == 0 {
		t.Fatal("seeded Splash2 bug not detected")
	}
	sawWW := false
	for _, r := range races {
		if r.Addr != app.RacyVirAddr() {
			sym, _ := sys.SymbolAt(r.Addr)
			t.Errorf("unexpected race at %#x (%s)", r.Addr, sym.Name)
		}
		if r.WriteWrite() {
			sawWW = true
		}
	}
	if !sawWW {
		t.Error("no write-write race on vir; paper reports a WW race")
	}
	if sym, ok := sys.SymbolAt(app.RacyVirAddr()); !ok || sym.Name != "vir" {
		t.Errorf("symbol lookup = %+v, %v", sym, ok)
	}
}

// TestWaterFixedBugClean: with the Splash2 fix applied, no races remain.
func TestWaterFixedBugClean(t *testing.T) {
	app, sys := runWater(t, Config{Molecules: 16, Steps: 2, FixBug: true}, 4, true)
	if err := app.Verify(sys); err != nil {
		t.Fatal(err)
	}
	if races := sys.Races(); len(races) != 0 {
		t.Errorf("fixed Water still races: %v", races[0])
	}
}

func TestWaterConfig(t *testing.T) {
	app := New(Config{})
	if app.cfg.Molecules != 64 || app.cfg.Steps != 5 {
		t.Errorf("defaults: %+v", app.cfg)
	}
	paper := New(Config{Molecules: 216, Steps: 5})
	if paper.InputDesc() != "216 mols, 5 steps" {
		t.Errorf("InputDesc = %q", paper.InputDesc())
	}
	if app.SyncKinds() != "lock, barrier" {
		t.Error("descriptors wrong")
	}
}

// TestReferenceComputedOncePerShape: Verify's reference trajectory is
// computed once per (Molecules, Steps) and shared, also by instances asking
// at the same time, and it is the trajectory Reference computes. FixBug
// changes only the unchecked virial, so it shares the reference too.
func TestReferenceComputedOncePerShape(t *testing.T) {
	cfg := Config{Molecules: 12, Steps: 2}
	got := make([]trajectory, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			c.FixBug = i%2 == 1
			got[i] = New(c).reference()
		}()
	}
	wg.Wait()
	for i, r := range got {
		if &r.pos[0] != &got[0].pos[0] || &r.vel[0] != &got[0].vel[0] {
			t.Fatalf("instance %d computed its own reference", i)
		}
	}
	pos, vel, kin := New(cfg).Reference()
	if !reflect.DeepEqual(got[0], trajectory{pos, vel, kin}) {
		t.Fatal("shared reference differs from Reference")
	}
	if other := New(Config{Molecules: 12, Steps: 3}).reference(); other.kin == got[0].kin {
		t.Fatal("two step counts share a reference")
	}
	if other := New(Config{Molecules: 16, Steps: 2}).reference(); len(other.pos) == len(got[0].pos) {
		t.Fatal("two molecule counts share a reference")
	}
}

// TestPartnersCoverEachPairOnce: over every molecule i and k = 1..n/2, the
// partners i owns name each unordered pair of distinct molecules exactly
// once, for even and odd n.
func TestPartnersCoverEachPairOnce(t *testing.T) {
	for n := 1; n <= 12; n++ {
		seen := map[[2]int]int{}
		for i := 0; i < n; i++ {
			for k := 1; k <= n/2; k++ {
				if j, ok := partner(i, k, n); ok {
					seen[[2]int{min(i, j), max(i, j)}]++
				}
			}
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if c := seen[[2]int{a, b}]; c != 1 {
					t.Errorf("n=%d: pair (%d,%d) computed %d times, want once", n, a, b, c)
				}
			}
		}
		if want := n * (n - 1) / 2; len(seen) != want {
			t.Errorf("n=%d: %d pairs, want %d", n, len(seen), want)
		}
	}
}

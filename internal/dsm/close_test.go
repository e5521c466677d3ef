package dsm_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lrcrace/internal/dsm"
	"lrcrace/internal/harness"
	"lrcrace/internal/mem"
	"lrcrace/internal/race"
	"lrcrace/internal/simnet"
)

// TestCloseReturnsEveryFrame: a harness run hands back every frame it held
// (System.Close) — no process keeps a page frame or a twin, and the
// checkpoint store keeps no chunk — for SOR, FFT and Water under both
// writer protocols and for a chaos run that crashed and rolled back.
func TestCloseReturnsEveryFrame(t *testing.T) {
	var cfgs []harness.RunConfig
	for _, app := range []string{"SOR", "FFT", "Water"} {
		for _, proto := range []dsm.ProtocolKind{dsm.SingleWriter, dsm.MultiWriter} {
			cfgs = append(cfgs, harness.RunConfig{App: app, Scale: 0.25, Procs: 4, Detect: true,
				DSM: dsm.Config{Protocol: proto}})
		}
	}
	cfgs = append(cfgs, harness.RunConfig{App: "ChaosMW", Procs: 4, Detect: true, CrashMode: "single", Seed: 3})
	for _, cfg := range cfgs {
		name := fmt.Sprintf("%s/%v", cfg.App, cfg.DSM.Protocol)
		if cfg.CrashMode != "" {
			name = cfg.App + "/crash-" + cfg.CrashMode
		}
		t.Run(name, func(t *testing.T) {
			res, err := harness.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.CrashMode != "" && res.Recovery.Recoveries == 0 {
				t.Fatal("the chaos run never rolled back")
			}
			if res.Checkpoint.LiveBytes == 0 {
				t.Fatal("the run held no checkpoint bytes, so an empty store proves nothing")
			}
			for _, p := range res.Sys.Procs() {
				if f, tw := p.Frames(), p.Twins(); f != 0 || tw != 0 {
					t.Errorf("proc %d kept %d frames and %d twins", p.ID(), f, tw)
				}
			}
			if n := res.Sys.ChunkStats().Chunks; n != 0 {
				t.Errorf("the checkpoint store kept %d chunks", n)
			}
		})
	}
}

// closedView is everything a closed System still answers.
type closedView struct {
	races     []race.Report
	explained []string
	symbols   []dsm.Symbol
	det       race.Stats
	state     race.State
	net       simnet.Stats
	ckpt      dsm.CheckpointStats
	rec       dsm.RecoveryStats
	procs     []dsm.Stats
	vnow      int64
}

func viewOf(t *testing.T, sys *dsm.System) closedView {
	t.Helper()
	v := closedView{
		races: append([]race.Report(nil), sys.Races()...),
		det:   sys.DetectorStats(),
		state: sys.DetectorState(),
		net:   sys.NetStats(),
		ckpt:  sys.CheckpointStats(),
		rec:   sys.RecoveryStats(),
		vnow:  sys.VirtualTime(),
	}
	for _, r := range sys.Races() {
		text, ok := sys.ExplainRace(r)
		if !ok {
			t.Fatalf("race %v has no explanation", r)
		}
		v.explained = append(v.explained, text)
	}
	for _, sym := range sys.Symbols() {
		got, ok := sys.SymbolAt(sym.Base + mem.Addr(sym.Size-1))
		if !ok {
			t.Fatalf("symbol %s not found at its last byte", sym.Name)
		}
		v.symbols = append(v.symbols, got)
	}
	for _, p := range sys.Procs() {
		v.procs = append(v.procs, p.Stats())
	}
	return v
}

// TestClosedSystemKeepsCounters: Close changes nothing but the frames —
// races and their explanations, symbols, detector, network, checkpoint and
// recovery statistics and every process's counters read as before — and a
// second Close changes nothing at all. TSP under multi-writer races and
// twins.
func TestClosedSystemKeepsCounters(t *testing.T) {
	sys := runApp(t, "TSP", 0.02, 4, dsm.MultiWriter, nil)
	before := viewOf(t, sys)
	if len(before.races) == 0 || before.ckpt.LiveBytes == 0 {
		t.Fatalf("%d races, %d checkpoint bytes: the run shows too little to compare", len(before.races), before.ckpt.LiveBytes)
	}
	sys.Close()
	if after := viewOf(t, sys); !reflect.DeepEqual(after, before) {
		t.Errorf("Close changed what the System reports:\nbefore %+v\nafter  %+v", before, after)
	}
	sys.Close()
	if again := viewOf(t, sys); !reflect.DeepEqual(again, before) {
		t.Error("a second Close changed what the System reports")
	}
}

// TestClosedSystemRefusesMemoryReads: a closed System's pages are gone, so
// reading one panics instead of reading zero.
func TestClosedSystemRefusesMemoryReads(t *testing.T) {
	sys := runApp(t, "SOR", 0.1, 2, dsm.SingleWriter, nil)
	sys.Close()
	for name, read := range map[string]func(){
		"SnapshotWord": func() { sys.SnapshotWord(0) },
		"SnapshotF64":  func() { sys.SnapshotF64(0) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "closed System") {
					t.Errorf("%s on a closed System: recovered %v, want a panic naming the closed System", name, r)
				}
			}()
			read()
		}()
	}
}

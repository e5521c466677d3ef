package dsm_test

import (
	"fmt"
	"reflect"
	"testing"

	"lrcrace/internal/apps"
	_ "lrcrace/internal/apps/fft"
	_ "lrcrace/internal/apps/sor"
	_ "lrcrace/internal/apps/water"
	"lrcrace/internal/dsm"
	"lrcrace/internal/mem"
)

// TestFramesOnDemand: a process allocates a page frame when it first holds
// the page, so in SOR, where each process works on its own band of rows and
// reads only its neighbours' boundary rows, no process holds every page.
func TestFramesOnDemand(t *testing.T) {
	for _, proto := range []dsm.ProtocolKind{dsm.SingleWriter, dsm.MultiWriter} {
		t.Run(fmt.Sprint(proto), func(t *testing.T) {
			sys := runApp(t, "SOR", 0.25, 4, proto, nil)
			np := sys.Layout().NumPages
			for _, p := range sys.Procs() {
				if f := p.Frames(); f == 0 || f >= np {
					t.Errorf("proc %d holds %d frames of %d pages, want some but fewer than all", p.ID(), f, np)
				}
			}
		})
	}
}

// TestZeroPageStaysZero: every process of a run views its frameless pages
// through the one zero page of the page size that all segments share (a
// home serving a page it never wrote copies from it), so nothing in a run
// may write through it.
func TestZeroPageStaysZero(t *testing.T) {
	for _, name := range []string{"SOR", "FFT", "Water"} {
		for _, proto := range []dsm.ProtocolKind{dsm.SingleWriter, dsm.MultiWriter} {
			sys := runApp(t, name, 0.25, 4, proto, nil)
			l := sys.Layout()
			view := mem.NewSegment(l).PageView(0)
			for i, b := range view {
				if b != 0 {
					t.Fatalf("%s, %v: the shared %d-byte zero page holds %#x at byte %d after the run", name, proto, l.PageSize, b, i)
				}
			}
		}
	}
}

// TestCheckpointDirtySetMatchesAllDirty: re-referencing the chunks of the
// pages the protocol left clean changes nothing a run deposits. SOR, FFT
// and Water under both protocols, and under multi-writer with write
// notices from diffs (whose twinned pages join the interval's written set
// only at the flush), checkpoint byte-identical manifests and
// chunk references, every epoch kept, with the dirty set as with every
// page dirty at every barrier; the chunk store accounts for them the same
// bar the fingerprints the clean pages saved, and so do the checkpoint
// counters bar the encode time.
func TestCheckpointDirtySetMatchesAllDirty(t *testing.T) {
	for _, name := range []string{"SOR", "FFT", "Water"} {
		for _, cfg := range []dsm.Config{
			{Protocol: dsm.SingleWriter},
			{Protocol: dsm.MultiWriter},
			{Protocol: dsm.MultiWriter, WritesFromDiffs: true},
		} {
			label := fmt.Sprint(cfg.Protocol)
			if cfg.WritesFromDiffs {
				label += "+diffs"
			}
			t.Run(name+"/"+label, func(t *testing.T) {
				run := func(allDirty bool) *dsm.System {
					app, err := apps.New(name, 0.25)
					if err != nil {
						t.Fatal(err)
					}
					cfg.NumProcs, cfg.SharedSize, cfg.Detect = 4, app.SharedBytes(), true
					sys, err := dsm.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					sys.KeepCheckpoints()
					if allDirty {
						sys.CheckpointAllDirty()
					}
					if err := app.Setup(sys); err != nil {
						t.Fatal(err)
					}
					if err := sys.Run(app.Worker); err != nil {
						t.Fatal(err)
					}
					if err := app.Verify(sys); err != nil {
						t.Fatal(err)
					}
					return sys
				}
				clean, dirty := run(false), run(true)
				if !reflect.DeepEqual(clean.Checkpoints(), dirty.Checkpoints()) {
					t.Error("checkpoints differ from the all-dirty run's")
				}
				got, want := clean.ChunkStats(), dirty.ChunkStats()
				if got.Hashed >= want.Hashed {
					t.Errorf("fingerprinted %d chunks, %d all dirty: want fewer", got.Hashed, want.Hashed)
				}
				t.Logf("%d deposits; %d fingerprinted with the dirty set, %d all dirty", got.Puts, got.Hashed, want.Hashed)
				got.Hashed, want.Hashed = 0, 0
				if got != want {
					t.Errorf("chunk store accounting differs:\n dirty set %+v\n all dirty %+v", got, want)
				}
				gotCkpt, wantCkpt := clean.CheckpointStats(), dirty.CheckpointStats()
				gotCkpt.EncodeNS, wantCkpt.EncodeNS = 0, 0
				if gotCkpt != wantCkpt {
					t.Errorf("checkpoint stats differ:\n dirty set %+v\n all dirty %+v", gotCkpt, wantCkpt)
				}
			})
		}
	}
}

package dsm_test

import (
	"fmt"
	"testing"

	"lrcrace/internal/apps"
	_ "lrcrace/internal/apps/fft"
	_ "lrcrace/internal/apps/sor"
	"lrcrace/internal/castore"
	"lrcrace/internal/dsm"
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

// TestSharedCheckpointHintSavesHashes: offering each page copy at the
// address another process deposited its copy of the page under at the same
// barrier changes nothing a run deposits — every castore.Stats field but
// Hashed, and every CheckpointStats field but the encode time, stay equal —
// and hashes fewer pages.
func TestSharedCheckpointHintSavesHashes(t *testing.T) {
	run := func(ownOnly bool) (castore.Stats, dsm.CheckpointStats) {
		app, err := apps.New("FFT", 0.25)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := dsm.New(dsm.Config{NumProcs: 4, SharedSize: app.SharedBytes(), Detect: true})
		if err != nil {
			t.Fatal(err)
		}
		if ownOnly {
			sys.OfferOwnCkptHintsOnly()
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
		cs := sys.CheckpointStats()
		cs.EncodeNS = 0
		return sys.ChunkStats(), cs
	}
	own, ownCkpt := run(true)
	shared, sharedCkpt := run(false)
	if shared.Hashed >= own.Hashed || shared.Hashed == 0 {
		t.Errorf("Hashed = %d with the shared hint, %d without: want fewer but some", shared.Hashed, own.Hashed)
	}
	t.Logf("FFT 0.25/4: %d deposits; %d hashed with own hints only, %d with the shared hint", own.Puts, own.Hashed, shared.Hashed)
	own.Hashed, shared.Hashed = 0, 0
	if own != shared {
		t.Errorf("chunk store accounting differs:\n own only %+v\n shared   %+v", own, shared)
	}
	if ownCkpt != sharedCkpt {
		t.Errorf("checkpoint stats differ:\n own only %+v\n shared   %+v", ownCkpt, sharedCkpt)
	}
}

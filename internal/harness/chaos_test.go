package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"testing"

	"lrcrace/internal/dsm"
	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"
)

// TestChaosSoakSOR is the acceptance soak: a full application kernel (SOR)
// runs over the reliability sublayer on a wire with 10% drop, 5% dup and
// reordering, passes its result verification, reports the same racy
// variables as the fault-free run, and shows nonzero retransmit counters.
// Its canonical metrics snapshot, the form a sweep pins, keeps those
// counters and is byte-identical across two runs.
func TestChaosSoakSOR(t *testing.T) {
	base := RunConfig{
		App:    "SOR",
		Scale:  0.05,
		Procs:  4,
		Detect: true,
		DSM:    dsm.Config{Protocol: dsm.SingleWriter},
	}
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	chaos := base
	chaos.Faults = &simnet.FaultPlan{Seed: 20260805, Drop: 0.10, Dup: 0.05, Reorder: 0.10, MaxReorder: 3}
	dirty, err := Run(chaos) // Run verifies the SOR result internally
	if err != nil {
		t.Fatal(err)
	}

	cv, dv := clean.RacyVariables(), dirty.RacyVariables()
	sort.Strings(cv)
	sort.Strings(dv)
	if !reflect.DeepEqual(cv, dv) {
		t.Errorf("racy variables differ: clean=%v chaos=%v", cv, dv)
	}

	st := dirty.Net
	if st.TotalDropped() == 0 {
		t.Error("chaos wire dropped nothing")
	}
	if st.Retransmits == 0 {
		t.Error("no retransmissions despite 10%% drop")
	}
	if st.RetransBytes == 0 {
		t.Error("retransmit bytes not accounted")
	}
	if st.Errors != 0 {
		t.Errorf("reliability layer reported %d errors (dead links)", st.Errors)
	}

	canonical := func() []byte {
		cfg := chaos
		cfg.Telemetry = &telemetry.Config{FlightSink: io.Discard}
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := r.MetricsSnapshot().Canonical()
		if n := snap.CounterTotal("net_retransmits_total"); n != st.Retransmits {
			t.Errorf("canonical net_retransmits_total = %d, want %d", n, st.Retransmits)
		}
		if snap.Counters[`telemetry_events_total{kind="Retransmit"}`] == 0 {
			t.Error("canonical snapshot lost the Retransmit event count")
		}
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := canonical(), canonical(); !bytes.Equal(a, b) {
		t.Errorf("canonical snapshots of two lossy runs differ (%d vs %d bytes)", len(a), len(b))
	}
}

// TestChaosApps runs every chaos application through every crash mode:
// the epoch-structured workloads must converge through rollback and pass
// their own verification (exactly-once lock-ordered updates, per-proc
// slots at their final values) whatever the injected failure. Each run is
// made twice and must repeat exactly — retries and link deaths fire on the
// scheduler's clock — and so must the crash cell of sweep's chaos-seeds
// grid (ChaosTSP-s1-p2-sw-d1-sh0-ck1-crsingle-seed0).
func TestChaosApps(t *testing.T) {
	type cell struct {
		name string
		cfg  RunConfig
	}
	var cells []cell
	for _, app := range ChaosAppNames {
		for _, mode := range CrashModes {
			cells = append(cells, cell{fmt.Sprintf("%s/%s", app, mode),
				RunConfig{App: app, Procs: 4, Detect: true, CrashMode: mode, Seed: 3}})
		}
	}
	cells = append(cells, cell{"ChaosTSP/p2-single-seed0",
		RunConfig{App: "ChaosTSP", Scale: 1, Procs: 2, Detect: true, CrashMode: "single"}})
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			r, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.cfg.CrashMode != "none" && r.Recovery.Recoveries < 1 {
				t.Errorf("crash mode %q performed no recovery", c.cfg.CrashMode)
			}
			if r.Checkpoint.Count == 0 {
				t.Error("chaos run deposited no checkpoints")
			}
			again, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.Races, again.Races) {
				t.Errorf("race reports differ between two runs: %d, then %d", len(r.Races), len(again.Races))
			}
			if r.VirtualNS != again.VirtualNS || r.Net != again.Net || !reflect.DeepEqual(r.Procs, again.Procs) {
				t.Errorf("runs differ: virtual %d vs %d ns, traffic equal %v, process stats equal %v",
					r.VirtualNS, again.VirtualNS, r.Net == again.Net, reflect.DeepEqual(r.Procs, again.Procs))
			}
			r.Recovery.WallNS, again.Recovery.WallNS = 0, 0
			if r.Recovery != again.Recovery {
				t.Errorf("recovery differs:\n%+v\n%+v", r.Recovery, again.Recovery)
			}
		})
	}
}

// TestChaosCorruption layers checkpoint damage on top of a crash: the
// rollback must reject the damaged epoch (a verify failure), fall back,
// and still verify the application result.
func TestChaosCorruption(t *testing.T) {
	for _, corrupt := range []string{"chunk", "delete"} {
		corrupt := corrupt
		t.Run(corrupt, func(t *testing.T) {
			t.Parallel()
			r, err := Run(RunConfig{
				App: "ChaosTSP", Procs: 4, Detect: true,
				CrashMode: "single", CorruptMode: corrupt, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Recovery.VerifyFailures < 1 {
				t.Errorf("VerifyFailures = %d, want ≥ 1: the damaged epoch must be rejected",
					r.Recovery.VerifyFailures)
			}
		})
	}
}

// TestChaosConfigRejected pins the configuration contract: chaos modes
// apply only to the epoch-structured chaos apps, and corruption is only
// meaningful under a crash.
func TestChaosConfigRejected(t *testing.T) {
	cases := []struct {
		name string
		cfg  RunConfig
	}{
		{"crash mode on whole-program app", RunConfig{App: "SOR", Procs: 2, CrashMode: "single"}},
		{"corrupt mode on whole-program app", RunConfig{App: "TSP", Procs: 2, CorruptMode: "chunk"}},
		{"corruption without a crash", RunConfig{App: "ChaosTSP", Procs: 4, CorruptMode: "chunk"}},
		{"unknown crash mode", RunConfig{App: "ChaosTSP", Procs: 4, CrashMode: "thrice"}},
		{"unknown corrupt mode", RunConfig{App: "ChaosTSP", Procs: 4, CrashMode: "single", CorruptMode: "scribble"}},
		{"double crash needs three procs", RunConfig{App: "ChaosMW", Procs: 2, CrashMode: "double"}},
		{"crash with checkpointing off", RunConfig{App: "ChaosTSP", Procs: 4, CrashMode: "single", DSM: dsm.Config{NoCheckpoint: true}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.cfg); err == nil {
				t.Errorf("config %+v accepted, want error", tc.cfg)
			}
		})
	}
}

// TestCheckpointDedupFloor is the checkpoint-size smoke: always-on
// chunked checkpointing must keep stored bytes well under the full
// serialization cost. The ceilings pin the measured ratios with headroom
// (SOR ≈ 0.06 stored/logical at these parameters, ChaosMW ≈ 0.21); a
// regression past them means structural sharing broke.
func TestCheckpointDedupFloor(t *testing.T) {
	cases := []struct {
		cfg     RunConfig
		ceiling float64
	}{
		{RunConfig{App: "SOR", Scale: 0.25, Procs: 4, Detect: true}, 0.15},
		{RunConfig{App: "ChaosMW", Procs: 4, Detect: true}, 0.35},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.cfg.App, func(t *testing.T) {
			t.Parallel()
			r, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := r.Checkpoint
			if c.LogicalBytes == 0 {
				t.Fatal("run recorded no checkpoint bytes")
			}
			ratio := float64(c.Bytes) / float64(c.LogicalBytes)
			t.Logf("%s: stored %d / logical %d = %.3f (ceiling %.2f)",
				tc.cfg.App, c.Bytes, c.LogicalBytes, ratio, tc.ceiling)
			if ratio > tc.ceiling {
				t.Errorf("dedup ratio %.3f exceeds the %.2f ceiling: chunk sharing regressed",
					ratio, tc.ceiling)
			}
			if c.ChunkHits == 0 {
				t.Error("no chunk dedup hits at all")
			}
		})
	}
}

package dsm

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"lrcrace/internal/castore"
	"lrcrace/internal/telemetry"
)

// compoundSys is recoverySys generalized to compound faults: several crash
// plans and an optional checkpoint-corruption plan.
func compoundSys(t *testing.T, nproc int, proto ProtocolKind, crashes []*CrashPlan, corrupt *CorruptionPlan, rec *telemetry.Recorder) *System {
	t.Helper()
	s, err := New(Config{
		NumProcs:   nproc,
		SharedSize: 16 * 1024,
		PageSize:   1024,
		Protocol:   proto,
		Detect:     true,
		Crashes:    crashes,
		Corruption: corrupt,
		Recorder:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.keepCkpts = true
	return s
}

func (sc recoveryScenario) runCompound(t *testing.T, crashes []*CrashPlan, corrupt *CorruptionPlan) *System {
	t.Helper()
	s := compoundSys(t, 4, sc.proto, crashes, corrupt, sc.rec)
	factory := sc.setup(t, s)
	if err := s.RunEpochs(sc.epochs, factory); err != nil {
		t.Fatalf("%s (crashes=%v, corrupt=%+v): %v", sc.name, crashes, corrupt, err)
	}
	return s
}

// TestCompoundTwoVictimCrash: two distinct victims with crash plans in the
// same epoch. Depending on which death is detected first, the second plan
// may fire in the original attempt (one rollback covers both) or on the
// re-execution (a second rollback) — either way the run must converge and
// reproduce the crash-free race set.
func TestCompoundTwoVictimCrash(t *testing.T) {
	for _, sc := range []recoveryScenario{tspScenario(), mwScenario()} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			baseRaces := sc.run(t, nil).Races()
			if len(baseRaces) == 0 {
				t.Fatal("crash-free run found no races; the test would prove nothing")
			}
			crashes := []*CrashPlan{
				{Victim: 1, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
				{Victim: 3, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
			}
			s := sc.runCompound(t, crashes, nil)
			rs := s.RecoveryStats()
			if rs.Recoveries < 1 || rs.Recoveries > 2 {
				t.Errorf("recoveries = %d, want 1 or 2 (both victims may die in one attempt)", rs.Recoveries)
			}
			if !s.CrashFired(0) && !s.CrashFired(1) {
				t.Error("neither crash plan fired")
			}
			if got := s.Races(); !reflect.DeepEqual(got, baseRaces) {
				t.Errorf("two-victim races differ from the crash-free run's:\ncrash-free: %v\nrecovered:  %v",
					baseRaces, got)
			}
		})
	}
}

// TestCompoundCrashDuringRecovery: a second victim whose plan arms only
// after the first rollback — failure striking mid-heal. The run must
// perform exactly two rollbacks and still converge to the crash-free
// races.
func TestCompoundCrashDuringRecovery(t *testing.T) {
	for _, sc := range []recoveryScenario{tspScenario(), mwScenario()} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			baseRaces := sc.run(t, nil).Races()
			crashes := []*CrashPlan{
				{Victim: 1, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
				{Victim: 2, Epoch: 1, Point: CrashMidInterval, AfterN: 2, DuringRecovery: true},
			}
			s := sc.runCompound(t, crashes, nil)
			rs := s.RecoveryStats()
			if rs.Recoveries != 2 {
				t.Errorf("recoveries = %d, want 2 (initial crash + crash during recovery)", rs.Recoveries)
			}
			if !s.CrashFired(0) || !s.CrashFired(1) {
				t.Errorf("plans fired = %v/%v, want both", s.CrashFired(0), s.CrashFired(1))
			}
			if got := s.Races(); !reflect.DeepEqual(got, baseRaces) {
				t.Errorf("races differ from the crash-free run's:\ncrash-free: %v\nrecovered:  %v",
					baseRaces, got)
			}
		})
	}
}

// TestCorruptCheckpointFallback: the corruption plan damages the crash
// epoch's chunk closure (every process deposits that line before the victim
// dies mid-epoch, so the damage always lands before rollback planning).
// The rollback must detect the broken closure — never restore from it —
// fall back to an older epoch (or a full restart), and still converge to
// the crash-free race set. Both damage modes, both protocols.
func TestCorruptCheckpointFallback(t *testing.T) {
	for _, sc := range []recoveryScenario{tspScenario(), mwScenario()} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			baseRaces := sc.run(t, nil).Races()
			for _, mode := range []CorruptMode{CorruptChunk, DeleteChunk} {
				mode := mode
				t.Run(mode.String(), func(t *testing.T) {
					crash := &CrashPlan{Victim: 2, Epoch: 2, Point: CrashMidInterval, AfterN: 2}
					corrupt := &CorruptionPlan{Epoch: 2, Mode: mode, Count: 2, Seed: 7}
					s := sc.runCompound(t, []*CrashPlan{crash}, corrupt)
					if !s.CrashFired(0) {
						t.Fatal("crash plan never fired")
					}
					if !s.CorruptionFired() {
						t.Fatal("corruption plan never fired")
					}
					rs := s.RecoveryStats()
					if rs.Recoveries < 1 {
						t.Fatalf("no recovery performed (stats %+v)", rs)
					}
					if rs.VerifyFailures < 1 {
						t.Errorf("VerifyFailures = %d, want ≥ 1: the corrupted epoch must be rejected", rs.VerifyFailures)
					}
					if rs.LastEpoch >= corrupt.Epoch {
						t.Errorf("recovered from epoch %d, but epoch %d was corrupted", rs.LastEpoch, corrupt.Epoch)
					}
					if got := s.Races(); !reflect.DeepEqual(got, baseRaces) {
						t.Errorf("races differ from the crash-free run's:\ncrash-free: %v\nrecovered:  %v",
							baseRaces, got)
					}
				})
			}
		})
	}
}

// TestFullRestartResetsDetector: when the only stored line fails
// verification, rollback restarts from the initial state — the detector
// included. The restore must leave no race report behind, though the
// aborted attempt's barrier-1 check had reported some; and a lock-free run
// makes the detector state deterministic, so the restarted run must end
// with exactly the crash-free run's: nothing the aborted attempt counted,
// retained or reported may survive.
func TestFullRestartResetsDetector(t *testing.T) {
	sc := racyMWScenario()
	want := sc.run(t, nil).DetectorState()
	var s *System
	aborted, restored := -1, -1
	sc.rec = telemetry.New(telemetry.Config{Procs: 4, FlightSink: io.Discard, Observer: func(e telemetry.Event) {
		switch e.Kind {
		case telemetry.KRecoveryStart:
			aborted = len(s.Races())
		case telemetry.KRecoveryDone:
			restored = len(s.Races())
		}
	}})
	crash := &CrashPlan{Victim: 2, Epoch: 1, Point: CrashMidInterval, AfterN: 1}
	s = compoundSys(t, 4, sc.proto, []*CrashPlan{crash}, &CorruptionPlan{Epoch: 1}, sc.rec)
	if err := s.RunEpochs(sc.epochs, sc.setup(t, s)); err != nil {
		t.Fatal(err)
	}
	if rs := s.RecoveryStats(); rs.Recoveries != 1 || rs.LastEpoch != 0 || rs.VerifyFailures != 1 {
		t.Fatalf("recovery stats %+v, want one full restart after one verify failure", rs)
	}
	if aborted <= 0 || restored != 0 {
		t.Errorf("the aborted attempt reported %d races and the restart restored %d, want some and none", aborted, restored)
	}
	if got := s.DetectorState(); !reflect.DeepEqual(got, want) {
		t.Errorf("detector state after a full restart:\n got %+v\nwant %+v", got, want)
	}
}

// TestCorruptionTelemetry: the compound-fault path leaves a full audit
// trail — corruption-injected and verify-failure events, the CkptVerify
// trip, and the dsm_ckpt_* counters.
func TestCorruptionTelemetry(t *testing.T) {
	// The verify failure trips the flight recorder by design; keep the dump
	// out of the test log.
	rec := telemetry.New(telemetry.Config{Procs: 4, Cap: -1, FlightSink: io.Discard})
	sc := tspScenario()
	sc.rec = rec
	crash := &CrashPlan{Victim: 2, Epoch: 2, Point: CrashMidInterval, AfterN: 2}
	corrupt := &CorruptionPlan{Epoch: 2, Mode: CorruptChunk, Count: 1, Seed: 11}
	s := sc.runCompound(t, []*CrashPlan{crash}, corrupt)
	if rs := s.RecoveryStats(); rs.VerifyFailures < 1 {
		t.Fatalf("VerifyFailures = %d, want ≥ 1", rs.VerifyFailures)
	}

	seen := map[telemetry.Kind]int{}
	for _, e := range rec.Events() {
		seen[e.Kind]++
	}
	for _, k := range []telemetry.Kind{
		telemetry.KCkptChunk, telemetry.KCkptCorrupt, telemetry.KCkptVerifyFail,
	} {
		if seen[k] == 0 {
			t.Errorf("no %v event recorded", k)
		}
	}

	snap := rec.Metrics().Snapshot()
	for _, name := range []string{
		"dsm_ckpt_chunk_puts_total", "dsm_ckpt_chunk_hits_total",
		"dsm_ckpt_chunk_bytes_total", "dsm_ckpt_logical_bytes_total",
		"dsm_ckpt_verify_failures_total",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	if ratio := snap.Gauges["dsm_ckpt_dedup_ratio"]; ratio <= 0 || ratio > 1 {
		t.Errorf("dsm_ckpt_dedup_ratio = %v, want in (0, 1]", ratio)
	}
	if got := snap.Counters[`telemetry_trips_total{reason="CkptVerify"}`]; got <= 0 {
		t.Errorf("CkptVerify trips = %d, want > 0", got)
	}
}

// TestTamperedCheckpointRejected pins the acceptance bar for integrity:
// decoding a manifest whose chunk was tampered with (or deleted) fails
// with the typed ErrCheckpointChunk — the damaged state is never silently
// restored — while the untouched manifests still decode.
func TestTamperedCheckpointRejected(t *testing.T) {
	sc := mwScenario()
	s := sc.run(t, nil)

	blob := s.ckpts.Get(1, 2)
	if blob == nil {
		t.Fatal("no checkpoint for proc 1 epoch 2")
	}
	if _, _, err := decodeCheckpoint(s, 1, blob, s.ckpts.Chunks()); err != nil {
		t.Fatalf("pristine checkpoint failed to decode: %v", err)
	}

	// Tamper with one chunk of proc 1's epoch-2 closure.
	keys := s.ckpts.byProc[1][2].keys
	if len(keys) == 0 {
		t.Fatal("epoch-2 checkpoint references no chunks")
	}
	if !s.ckpts.Chunks().Tamper(keys[0]) {
		t.Fatal("tamper failed")
	}
	_, _, err := decodeCheckpoint(s, 1, blob, s.ckpts.Chunks())
	if !errors.Is(err, ErrCheckpointChunk) {
		t.Fatalf("tampered checkpoint decoded with err = %v, want ErrCheckpointChunk", err)
	}

	// Deleting the chunk is detected the same way.
	if !s.ckpts.Chunks().Delete(keys[0]) {
		t.Fatal("delete failed")
	}
	if _, _, err := decodeCheckpoint(s, 1, blob, s.ckpts.Chunks()); !errors.Is(err, ErrCheckpointChunk) {
		t.Fatalf("missing-chunk checkpoint decoded with err = %v, want ErrCheckpointChunk", err)
	}
}

// TestCheckpointDedup: consecutive epochs share unchanged pages through
// the chunk store, so stored bytes stay well under logical bytes and
// dedup hits accumulate.
func TestCheckpointDedup(t *testing.T) {
	for _, sc := range []recoveryScenario{tspScenario(), mwScenario()} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			s := sc.run(t, nil)
			cs := s.CheckpointStats()
			if cs.ChunkPuts <= 0 || cs.ChunkHits <= 0 {
				t.Fatalf("chunk stats = %+v, want puts and hits > 0", cs)
			}
			if cs.Bytes >= cs.LogicalBytes {
				t.Errorf("stored %d bytes ≥ logical %d: no dedup happened", cs.Bytes, cs.LogicalBytes)
			}
		})
	}
}

// TestCheckpointStoreGC exercises retention directly: with the default
// tail of 2, epochs superseded by the recovery line are retired, their
// manifest and chunk bytes released, and the before/after totals recorded.
func TestCheckpointStoreGC(t *testing.T) {
	cs := NewCheckpointStore()
	const nproc = 2
	manifest := func(e int32) []byte { return []byte{byte(e), byte(e), byte(e)} }
	deposit := func(proc int, e int32) {
		// Each epoch stores one shared chunk (dedups across procs) plus one
		// per-proc chunk, mimicking unchanged vs. changed pages.
		shared, _ := cs.Chunks().Put([]byte(fmt.Sprintf("shared-%d", e)))
		own, _ := cs.Chunks().Put([]byte(fmt.Sprintf("own-%d-%d", proc, e)))
		cs.Put(proc, e, manifest(e), []castore.Key{shared, own})
	}
	for e := int32(1); e <= 5; e++ {
		for p := 0; p < nproc; p++ {
			deposit(p, e)
		}
	}
	if got := cs.LatestCommonEpoch(nproc); got != 5 {
		t.Fatalf("line = %d, want 5", got)
	}
	liveBefore := cs.Stats().LiveBytes
	removed, freed := cs.GC(nproc)
	// Cutoff is 5−2 = 3: epochs 1..3 retired for both procs.
	if removed != 6 {
		t.Errorf("GC removed %d manifests, want 6", removed)
	}
	if freed <= 0 {
		t.Errorf("GC freed %d bytes, want > 0", freed)
	}
	for e := int32(1); e <= 3; e++ {
		if cs.Get(0, e) != nil {
			t.Errorf("epoch %d survived GC", e)
		}
	}
	for e := int32(4); e <= 5; e++ {
		if cs.Get(0, e) == nil {
			t.Errorf("epoch %d in the retention tail was collected", e)
		}
	}
	st := cs.Stats()
	if st.GCRemoved != 6 || st.GCFreedBytes != freed {
		t.Errorf("GC stats = %+v, want GCRemoved=6 GCFreedBytes=%d", st, freed)
	}
	if st.GCLiveBytesBefore != liveBefore || st.GCLiveBytesAfter != liveBefore-freed {
		t.Errorf("GC live-bytes book-keeping = before %d after %d, want %d and %d",
			st.GCLiveBytesBefore, st.GCLiveBytesAfter, liveBefore, liveBefore-freed)
	}
	// A second sweep at the same line is a no-op.
	if r2, f2 := cs.GC(nproc); r2 != 0 || f2 != 0 {
		t.Errorf("idempotent GC removed %d/%d bytes", r2, f2)
	}
	// Unbounded retention disables GC entirely.
	cs.keepAll = true
	for p := 0; p < nproc; p++ {
		deposit(p, 6)
		deposit(p, 7)
		deposit(p, 8)
	}
	if r3, _ := cs.GC(nproc); r3 != 0 {
		t.Errorf("GC with retain=-1 removed %d manifests", r3)
	}
}

// TestCheckpointGCEndToEnd: a real run with the default retention keeps
// only the tail and reports what it retired.
func TestCheckpointGCEndToEnd(t *testing.T) {
	sc := tspScenario()
	s, err := New(Config{
		NumProcs:   4,
		SharedSize: 16 * 1024,
		PageSize:   1024,
		Protocol:   sc.proto,
		Detect:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	factory := sc.setup(t, s)
	if err := s.RunEpochs(sc.epochs, factory); err != nil {
		t.Fatal(err)
	}
	// Line 3, default tail 2: epoch 1 collected, epochs 2..3 retained.
	for p := 0; p < 4; p++ {
		if s.ckpts.Get(p, 1) != nil {
			t.Errorf("proc %d epoch 1 survived retention GC", p)
		}
		for e := int32(2); e <= 3; e++ {
			if s.ckpts.Get(p, e) == nil {
				t.Errorf("proc %d epoch %d missing from the retention tail", p, e)
			}
		}
	}
	cs := s.CheckpointStats()
	if cs.GCRemoved != 4 {
		t.Errorf("GCRemoved = %d, want 4 (epoch 1 for every proc)", cs.GCRemoved)
	}
	if cs.GCFreedBytes <= 0 {
		t.Errorf("GC byte accounting = %+v, want freed > 0", cs)
	}
	if cs.LiveBytes >= cs.Bytes {
		t.Errorf("live %d ≥ cumulative %d: GC released nothing", cs.LiveBytes, cs.Bytes)
	}
	// Count is cumulative: GC retires resident state, not history.
	if want := 4 * int(sc.epochs); cs.Count != want {
		t.Errorf("Count = %d, want %d", cs.Count, want)
	}
}

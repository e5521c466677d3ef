package dsm

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lrcrace/internal/hbdet"
	"lrcrace/internal/mem"
	"lrcrace/internal/race"
	"lrcrace/internal/telemetry"
)

// recoveryConfig describes a system armed for crash recovery: checkpointing
// on, and the reliable sublayer, whose link deaths detect a victim that
// survivors are sending to; a crash that leaves no survivor→victim traffic
// is detected as a deadlock.
func recoveryConfig(nproc int, proto ProtocolKind, crash *CrashPlan, rec *telemetry.Recorder) Config {
	cfg := Config{
		NumProcs:   nproc,
		SharedSize: 16 * 1024,
		PageSize:   1024,
		Protocol:   proto,
		Detect:     true,
		Recorder:   rec,
	}
	if crash != nil {
		cfg.Crashes = []*CrashPlan{crash}
	}
	return cfg
}

func recoverySys(t *testing.T, nproc int, proto ProtocolKind, crash *CrashPlan, rec *telemetry.Recorder) *System {
	t.Helper()
	s, err := New(recoveryConfig(nproc, proto, crash, rec))
	if err != nil {
		t.Fatal(err)
	}
	// Keep every epoch line: the round-trip and grid tests assert on
	// checkpoints the retention tail would have collected.
	s.keepCkpts = true
	return s
}

// recoveryScenario is one epoch-structured workload for the crash grid.
// setup allocates shared state and returns the per-attempt app factory; its
// epoch bodies are self-contained (no cross-epoch closure state), as
// RunEpochs requires.
type recoveryScenario struct {
	name   string
	proto  ProtocolKind
	epochs int32
	setup  func(t *testing.T, s *System) func() EpochFunc
	rec    *telemetry.Recorder // nil → the runs record no telemetry
}

// tspScenario is the paper's TSP shape: a branch-and-bound bound variable
// updated under a lock but read unsynchronized for pruning (the racy read),
// plus per-process tour slots (disjoint words, no race).
func tspScenario() recoveryScenario {
	return recoveryScenario{
		name:   "tsp",
		proto:  SingleWriter,
		epochs: 3,
		setup: func(t *testing.T, s *System) func() EpochFunc {
			best, err := s.AllocWords("best", 1)
			if err != nil {
				t.Fatal(err)
			}
			tours, err := s.AllocWords("tours", 8)
			if err != nil {
				t.Fatal(err)
			}
			return func() EpochFunc {
				return func(p *Proc, e int32) {
					p.Write(tours+mem.Addr(p.ID()*8), uint64(int(e)*10+p.ID()))
					p.Lock(0)
					p.Write(best, p.Read(best)+1)
					p.Unlock(0)
					if p.ID() != 0 {
						p.Read(best) // unsynchronized pruning read: the TSP race
					}
				}
			}
		},
	}
}

// mwScenario exercises the multi-writer diff protocol: disjoint words of a
// shared page (false sharing, no race), an unsynchronized write-write
// overlap between procs 1 and 2 (the race), and a lock-ordered counter
// whose final value proves no update is lost or doubled across a rollback.
func mwScenario() recoveryScenario {
	return recoveryScenario{
		name:   "multi-writer",
		proto:  MultiWriter,
		epochs: 3,
		setup: func(t *testing.T, s *System) func() EpochFunc {
			words, err := s.AllocWords("words", 16)
			if err != nil {
				t.Fatal(err)
			}
			counter, err := s.AllocWords("counter", 1)
			if err != nil {
				t.Fatal(err)
			}
			return func() EpochFunc {
				return func(p *Proc, e int32) {
					p.Write(words+mem.Addr(p.ID()*8), uint64(e)+1)
					if p.ID() == 1 || p.ID() == 2 {
						p.Write(words+mem.Addr(10*8), uint64(p.ID()))
					}
					p.Lock(1)
					p.Write(counter, p.Read(counter)+1)
					p.Unlock(1)
				}
			}
		},
	}
}

func (sc recoveryScenario) run(t *testing.T, crash *CrashPlan) *System {
	t.Helper()
	s := recoverySys(t, 4, sc.proto, crash, sc.rec)
	factory := sc.setup(t, s)
	if err := s.RunEpochs(sc.epochs, factory); err != nil {
		t.Fatalf("%s (crash=%+v): %v", sc.name, crash, err)
	}
	return s
}

// TestCrashRecoveryGrid is the acceptance grid: crash each worker 1..N-1
// mid-interval in turn, on both scenarios, and demand the recovered run
// report exactly the crash-free run's races. Additional protocol points —
// dying while holding a lock, dying inside the barrier's bitmap round, and
// dying before the first checkpoint exists (epoch 0, full restart) — ride
// on top of the victim sweep.
func TestCrashRecoveryGrid(t *testing.T) {
	const nproc = 4
	for _, sc := range []recoveryScenario{tspScenario(), mwScenario()} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			base := sc.run(t, nil)
			baseRaces := base.Races()
			if len(baseRaces) == 0 {
				t.Fatalf("crash-free %s run found no races; the grid would prove nothing", sc.name)
			}
			if rs := base.RecoveryStats(); rs.Recoveries != 0 {
				t.Fatalf("crash-free run performed %d recoveries", rs.Recoveries)
			}
			wantCkpts := nproc * int(sc.epochs)
			if cs := base.CheckpointStats(); cs.Count != wantCkpts || cs.Bytes <= 0 {
				t.Fatalf("crash-free checkpoints = %+v, want Count=%d, Bytes>0", cs, wantCkpts)
			}

			plans := []*CrashPlan{
				{Victim: 1, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
				{Victim: 2, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
				{Victim: 3, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
				{Victim: 2, Epoch: 1, Point: CrashHoldingLock},
				{Victim: 2, Epoch: 1, Point: CrashInBitmapRound},
				{Victim: 1, Epoch: 0, Point: CrashMidInterval}, // before any checkpoint: full restart
			}
			for _, plan := range plans {
				plan := plan
				t.Run(fmt.Sprintf("%v-p%d-e%d", plan.Point, plan.Victim, plan.Epoch), func(t *testing.T) {
					s := sc.run(t, plan)
					if !s.CrashFired(0) {
						t.Fatal("crash plan never fired")
					}
					rs := s.RecoveryStats()
					if rs.Recoveries != 1 {
						t.Fatalf("recoveries = %d, want 1 (stats %+v)", rs.Recoveries, rs)
					}
					if rs.LastVictim != plan.Victim {
						t.Errorf("recovery blamed p%d, victim was p%d (via %s)",
							rs.LastVictim, plan.Victim, rs.LastReason)
					}
					if rs.LastReason != "link-death" && rs.LastReason != "barrier-timeout" {
						t.Errorf("detection path = %q, want link-death or barrier-timeout", rs.LastReason)
					}
					wantLine := int32(0)
					if plan.Epoch > 0 {
						wantLine = plan.Epoch
					}
					if rs.LastEpoch != wantLine {
						t.Errorf("recovery line = epoch %d, want %d", rs.LastEpoch, wantLine)
					}
					if got := s.Races(); !reflect.DeepEqual(got, baseRaces) {
						t.Errorf("recovered races differ from the crash-free run's:\ncrash-free: %v\nrecovered:  %v",
							baseRaces, got)
					}
					// Re-executed epochs deposit their checkpoints exactly once:
					// nothing past the crash existed to collide with.
					if cs := s.CheckpointStats(); cs.Count != wantCkpts {
						t.Errorf("checkpoints after recovery = %d, want %d", cs.Count, wantCkpts)
					}
				})
			}
		})
	}
}

// TestCrashRecoveryFinalMemory: the lock-ordered counter survives a
// rollback with no lost or doubled increments, and per-process slots hold
// their final-epoch values.
func TestCrashRecoveryFinalMemory(t *testing.T) {
	sc := mwScenario()
	s := recoverySys(t, 4, sc.proto, &CrashPlan{Victim: 3, Epoch: 1, Point: CrashMidInterval, AfterN: 2}, nil)
	words, _ := s.AllocWords("words", 16)
	counter, _ := s.AllocWords("counter", 1)
	err := s.RunEpochs(sc.epochs, func() EpochFunc {
		return func(p *Proc, e int32) {
			p.Write(words+mem.Addr(p.ID()*8), uint64(e)+1)
			p.Lock(1)
			p.Write(counter, p.Read(counter)+1)
			p.Unlock(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs := s.RecoveryStats(); rs.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", rs.Recoveries)
	}
	if got := s.SnapshotWord(counter); got != uint64(4*sc.epochs) {
		t.Errorf("counter = %d after recovery, want %d", got, 4*sc.epochs)
	}
	for p := 0; p < 4; p++ {
		if got := s.SnapshotWord(words + mem.Addr(p*8)); got != uint64(sc.epochs) {
			t.Errorf("slot %d = %d, want %d", p, got, sc.epochs)
		}
	}
}

// TestCrashRecoveryCrossValidation anchors the grid's baseline: the
// crash-free TSP run's LRC race set matches a classic vector-clock
// happens-before detector observing the same execution. Combined with the
// grid's recovered==crash-free equality, this cross-validates the
// recovered runs against internal/hbdet.
func TestCrashRecoveryCrossValidation(t *testing.T) {
	const nproc = 4
	hb := hbdet.New(nproc)
	s, err := New(Config{
		NumProcs:   nproc,
		SharedSize: 16 * 1024,
		PageSize:   1024,
		Protocol:   SingleWriter,
		Detect:     true,
		Tracer:     hb,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := tspScenario()
	factory := sc.setup(t, s)
	if err := s.RunEpochs(sc.epochs, factory); err != nil {
		t.Fatal(err)
	}
	lrc := map[mem.Addr]bool{}
	for _, r := range s.Races() {
		lrc[r.Addr] = true
	}
	hbAddrs := hb.RacyAddrs()
	if len(lrc) != len(hbAddrs) {
		t.Fatalf("LRC flags %v, happens-before flags %v", lrc, hbAddrs)
	}
	for _, a := range hbAddrs {
		if !lrc[a] {
			t.Fatalf("happens-before flags %v, LRC missed %v", hbAddrs, a)
		}
	}
}

// TestRecoveryTelemetry runs one crash-and-recover execution under an
// active recorder and checks both the event stream and the derived
// metrics: checkpoint, crash-injection/detection, and recovery events must
// appear, and the dsm_checkpoint_* / dsm_recovery_* counters must move.
func TestRecoveryTelemetry(t *testing.T) {
	rec := telemetry.New(telemetry.Config{Procs: 4, Cap: -1})
	sc := tspScenario()
	sc.rec = rec
	s := sc.run(t, &CrashPlan{Victim: 2, Epoch: 1, Point: CrashMidInterval, AfterN: 2})
	if rs := s.RecoveryStats(); rs.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", rs.Recoveries)
	}

	seen := map[telemetry.Kind]int{}
	for _, e := range rec.Events() {
		seen[e.Kind]++
	}
	for _, k := range []telemetry.Kind{
		telemetry.KCheckpoint, telemetry.KCrashInjected, telemetry.KCrashDetected,
		telemetry.KRecoveryStart, telemetry.KRecoveryDone,
	} {
		if seen[k] == 0 {
			t.Errorf("no %v event recorded (saw %v)", k, seen)
		}
	}
	if seen[telemetry.KCrashInjected] != 1 {
		t.Errorf("%d crash injections recorded, want 1", seen[telemetry.KCrashInjected])
	}

	snap := rec.Metrics().Snapshot()
	for _, name := range []string{
		"dsm_checkpoint_total", "dsm_checkpoint_bytes_total", "dsm_recovery_total",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	if got := snap.Counters["dsm_recovery_total"]; got != 1 {
		t.Errorf("dsm_recovery_total = %d, want 1", got)
	}
	// Wall time is measured even when the virtual rollback is tiny.
	if snap.Counters["dsm_recovery_wall_ns_total"] <= 0 {
		t.Errorf("dsm_recovery_wall_ns_total = %d, want > 0",
			snap.Counters["dsm_recovery_wall_ns_total"])
	}
	tripped := false
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "telemetry_trips_total") && v > 0 {
			tripped = true
		}
	}
	if !tripped && seen[telemetry.KCrashDetected] == 0 {
		t.Error("neither a trip nor a crash-detected event was recorded")
	}
}

// TestCheckpointRoundTrip: every checkpoint a real run deposits decodes,
// restores into a freshly built process of an identical system, and
// re-encodes to byte-identical form. This is the serialization acceptance
// bar: a measurably sized, versioned, deterministic format.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, sc := range []recoveryScenario{tspScenario(), mwScenario()} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			s := sc.run(t, nil)

			// A twin system with the same geometry to host restored procs.
			twin, err := New(Config{
				NumProcs:   4,
				SharedSize: 16 * 1024,
				PageSize:   1024,
				Protocol:   sc.proto,
				Detect:     true,
			})
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for proc := 0; proc < 4; proc++ {
				for epoch := int32(1); epoch <= sc.epochs; epoch++ {
					blob := s.ckpts.Get(proc, epoch)
					if blob == nil {
						t.Fatalf("no checkpoint for proc %d epoch %d", proc, epoch)
					}
					fresh, err := decodeIntoTwin(twin, proc, blob, s.ckpts.Chunks())
					if err != nil {
						t.Fatalf("proc %d epoch %d: %v", proc, epoch, err)
					}
					if fresh.id != proc || fresh.epoch != epoch {
						t.Fatalf("checkpoint header says proc %d epoch %d, stored under proc %d epoch %d",
							fresh.id, fresh.epoch, proc, epoch)
					}
					if again := reencode(fresh, s.ckpts.Chunks()); !bytes.Equal(blob, again) {
						t.Fatalf("proc %d epoch %d: re-encoded checkpoint differs (%d vs %d bytes)",
							proc, epoch, len(blob), len(again))
					}
					checked++
				}
			}
			if want := 4 * int(sc.epochs); checked != want {
				t.Fatalf("round-tripped %d checkpoints, want %d", checked, want)
			}

			// Corruption is rejected, not misparsed.
			blob := append([]byte(nil), s.ckpts.Get(1, 1)...)
			if _, _, err := decodeCheckpoint(s, 1, blob[:len(blob)-3], s.ckpts.Chunks()); err == nil {
				t.Error("truncated checkpoint decoded without error")
			}
			blob[0] ^= 0xff
			if _, _, err := decodeCheckpoint(s, 1, blob, s.ckpts.Chunks()); err == nil {
				t.Error("bad magic accepted")
			}
		})
	}
}

// TestCheckpointReportsArePrefix: the master's checkpoint at each line
// carries exactly the races reported before the line's epoch, in detection
// order — the list a rollback to that line resumes from.
func TestCheckpointReportsArePrefix(t *testing.T) {
	for _, sc := range []recoveryScenario{tspScenario(), mwScenario()} {
		t.Run(sc.name, func(t *testing.T) {
			s := sc.run(t, nil)
			all := s.Races()
			for line := int32(1); line <= sc.epochs; line++ {
				_, det, err := decodeCheckpoint(s, 0, s.ckpts.Get(0, line), s.ckpts.Chunks())
				if err != nil {
					t.Fatalf("line %d: %v", line, err)
				}
				var want []race.Report
				for _, r := range all {
					if r.Epoch < line {
						want = append(want, r)
					}
				}
				if line == 1 && (len(want) == 0 || len(want) == len(all)) {
					t.Fatalf("%d of %d reports precede line 1; the prefix would prove nothing", len(want), len(all))
				}
				if !reflect.DeepEqual(det.Reports, want) {
					t.Errorf("line %d restores reports\n %v\nwant\n %v", line, det.Reports, want)
				}
			}
		})
	}
}

// TestCheckpointStoreRecoveryLine exercises LatestCommonEpoch directly.
func TestCheckpointStoreRecoveryLine(t *testing.T) {
	cs := NewCheckpointStore()
	if got := cs.LatestCommonEpoch(2); got != 0 {
		t.Errorf("empty store line = %d, want 0", got)
	}
	cs.Put(0, 1, []byte{1}, nil)
	cs.Put(0, 2, []byte{2, 2}, nil)
	if got := cs.LatestCommonEpoch(2); got != 0 {
		t.Errorf("line with proc 1 missing = %d, want 0", got)
	}
	cs.Put(1, 1, []byte{3}, nil)
	if got := cs.LatestCommonEpoch(2); got != 1 {
		t.Errorf("line = %d, want 1", got)
	}
	cs.Put(1, 2, []byte{4, 4}, nil)
	if got := cs.LatestCommonEpoch(2); got != 2 {
		t.Errorf("line = %d, want 2", got)
	}
	// Re-depositing an existing key must not double-count stats.
	before := cs.Stats()
	cs.Put(1, 2, []byte{4, 4}, nil)
	if after := cs.Stats(); after != before {
		t.Errorf("re-put changed stats: %+v -> %+v", before, after)
	}
	if st := cs.Stats(); st.Count != 4 || st.Bytes != 6 {
		t.Errorf("stats = %+v, want Count=4 Bytes=6", st)
	}
}

// TestCrashConfigValidation: the config layer rejects unrecoverable crash
// plans at New, not mid-run. Detection needs no setting: on the simulated
// network a death nothing is sent to is detected at once, as a deadlock.
func TestCrashConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{
			NumProcs:   2,
			SharedSize: 4096,
		}
	}
	ok := base()
	ok.Crashes = []*CrashPlan{{Victim: 1}}
	if _, err := New(ok); err != nil {
		t.Fatalf("valid crash config rejected: %v", err)
	}

	noCkpt := base()
	noCkpt.NoCheckpoint = true
	noCkpt.Crashes = []*CrashPlan{{Victim: 1}}
	if _, err := New(noCkpt); err == nil {
		t.Error("Crash without Checkpoint accepted")
	}

	master := base()
	master.Crashes = []*CrashPlan{{Victim: 0}}
	if _, err := New(master); err == nil {
		t.Error("crash of the barrier master accepted")
	}

	outOfRange := base()
	outOfRange.Crashes = []*CrashPlan{{Victim: 2}}
	if _, err := New(outOfRange); err == nil {
		t.Error("victim out of range accepted")
	}

	badVT := base()
	badVT.Crashes = []*CrashPlan{{Victim: 1, Point: CrashAtVTime}}
	if _, err := New(badVT); err == nil {
		t.Error("CrashAtVTime without VTime accepted")
	}

	idleCorrupt := base()
	idleCorrupt.Corruption = &CorruptionPlan{Epoch: 1, Count: 1}
	if _, err := New(idleCorrupt); err == nil {
		t.Error("Corruption without a crash accepted (it could never be observed)")
	}

	corruptNoCkpt := base()
	corruptNoCkpt.NoCheckpoint = true
	corruptNoCkpt.Crashes = []*CrashPlan{{Victim: 1}}
	corruptNoCkpt.Corruption = &CorruptionPlan{Epoch: 1, Count: 1}
	if _, err := New(corruptNoCkpt); err == nil {
		t.Error("Corruption with NoCheckpoint accepted")
	}
}

// TestRandomCrashPlanDeterministic: same seed, same plan; victims stay in
// the worker range.
func TestRandomCrashPlanDeterministic(t *testing.T) {
	a := RandomCrashPlan(42, 4, 3)
	b := RandomCrashPlan(42, 4, 3)
	if a.Victim != b.Victim || a.Epoch != b.Epoch || a.Point != b.Point || a.AfterN != b.AfterN {
		t.Errorf("same seed, different plans: %+v vs %+v", a, b)
	}
	for seed := uint64(0); seed < 64; seed++ {
		p := RandomCrashPlan(seed, 4, 3)
		if p.Victim < 1 || p.Victim > 3 {
			t.Fatalf("seed %d: victim %d out of worker range", seed, p.Victim)
		}
		if p.Epoch < 0 || p.Epoch > 2 {
			t.Fatalf("seed %d: epoch %d out of range", seed, p.Epoch)
		}
		if err := p.Validate(4); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if RandomCrashPlan(1, 1, 3) != nil {
		t.Error("single-proc system has no valid victim; want nil plan")
	}
}

// TestBarrierResetAcrossEpochs: after a round that populated every
// per-epoch field of the barrier state — as a timed-out or crash-aborted
// round would leave them — the reset must clear all of it and advance the
// epoch, so the next round starts from a clean slate; a stale reset for an
// epoch already passed must change nothing.
func TestBarrierResetAcrossEpochs(t *testing.T) {
	s := newSys(t, 3, SingleWriter, true)
	p := newProc(s, 0)
	tr := p.tree
	for round := 0; round < 3; round++ {
		epochBefore := tr.epoch
		// Dirty every per-epoch field as a mid-round abort would leave it.
		tr.got = 2
		tr.sent = true
		tr.from[0] = true
		tr.from[2] = true
		tr.records = append(tr.records, nil)
		tr.groups = append(tr.groups, nil)
		tr.gvc[1] = 9
		tr.maxArr = 99
		tr.minArr = 7
		tr.runs = append(tr.runs, []race.CheckEntry{{}})
		tr.merged.PairComparisons = 4

		p.resetTree(epochBefore)
		p.resetTree(epochBefore) // stale: no-op

		if tr.epoch != epochBefore+1 {
			t.Errorf("round %d: epoch %d, want %d", round, tr.epoch, epochBefore+1)
		}
		if tr.got != 0 || tr.sent || tr.records != nil || len(tr.groups) != 0 || len(tr.runs) != 0 {
			t.Errorf("round %d: arrival state not reset: got=%d sent=%v records=%v groups=%v runs=%v",
				round, tr.got, tr.sent, tr.records, tr.groups, tr.runs)
		}
		if tr.maxArr != 0 || tr.minArr != -1 || tr.merged != (race.BuildStats{}) {
			t.Errorf("round %d: arrival clocks/work not reset: maxArr=%d minArr=%d merged=%+v",
				round, tr.maxArr, tr.minArr, tr.merged)
		}
		for i, v := range tr.from {
			if v || tr.gvc[i] != 0 {
				t.Errorf("round %d: from[%d]=%v gvc[%d]=%d still set", round, i, v, i, tr.gvc[i])
			}
		}
	}
}

// TestLockReclamation drives reconcileRestored directly against a
// hand-built post-restore state: a manager whose lastHolder points at a
// process with no tenure on its own side (the dead holder / rolled-back
// hand-off signature) must reclaim; a consistent released-ungranted tenure
// must be left alone.
func TestLockReclamation(t *testing.T) {
	s := newSys(t, 3, SingleWriter, false)
	s.procs = make([]*Proc, 3)
	for i := range s.procs {
		s.procs[i] = newProc(s, i)
	}
	m := s.procs[0]
	// Lock 0 (manager p0): lastHolder p2, but p2 has no tenure → reclaim.
	m.locks[0] = &lockState{lastHolder: 2}
	s.procs[2].locks[0] = &lockState{}
	// Lock 3 (manager p0): lastHolder p1 with a consistent release → keep.
	m.locks[3] = &lockState{lastHolder: 1}
	s.procs[1].locks[3] = &lockState{releasedUngranted: true}
	// Lock 1 (manager p1): lastHolder p1 itself, still holding → keep.
	s.procs[1].locks[1] = &lockState{holding: true, lastHolder: 1}

	if err := s.reconcileRestored(); err != nil {
		t.Fatal(err)
	}
	if got := m.locks[0].lastHolder; got != -1 {
		t.Errorf("dead tenure not reclaimed: lock 0 lastHolder = %d, want -1", got)
	}
	if got := m.locks[3].lastHolder; got != 1 {
		t.Errorf("consistent tenure reclaimed: lock 3 lastHolder = %d, want 1", got)
	}
	if got := s.procs[1].locks[1].lastHolder; got != 1 {
		t.Errorf("held tenure reclaimed: lock 1 lastHolder = %d, want 1", got)
	}
	if got := s.RecoveryStats().LocksReclaimed; got != 1 {
		t.Errorf("LocksReclaimed = %d, want 1", got)
	}
}

// TestBarrierBlame pins the suspect-derivation rules for barrier-wait
// timeouts: only a barrier wait may name a suspect, and only when exactly
// one process is missing from the round's arrival ledger — with several
// missing, any of them may merely be wedged behind the real victim.
func TestBarrierBlame(t *testing.T) {
	const n = 4
	mk := func() *Proc {
		s := newSys(t, n, SingleWriter, true)
		return newProc(s, 0)
	}

	// arrived marks the star root's ledger as a round in progress would.
	arrived := func(p *Proc, from ...int) {
		for _, q := range from {
			p.tree.from[q] = true
		}
		p.tree.got = len(from)
	}

	t.Run("non-barrier op never blames", func(t *testing.T) {
		p := mk()
		arrived(p, 0, 1, 2)
		// A lock wait wedged behind a dead holder must not blame whoever
		// has not reached the barrier yet (that includes this process).
		if suspect, detail := p.barrierBlame("lock grant"); suspect != -1 || detail != "" {
			t.Errorf("lock-grant timeout blamed p%d%s, want no suspect", suspect, detail)
		}
	})

	t.Run("non-master has no ledger", func(t *testing.T) {
		s := newSys(t, n, SingleWriter, true)
		p := newProc(s, 1)
		if suspect, _ := p.barrierBlame("barrier release"); suspect != -1 {
			t.Errorf("worker blamed p%d, want -1", suspect)
		}
	})

	t.Run("exactly one missing is the suspect", func(t *testing.T) {
		p := mk()
		arrived(p, 0, 1, 2)
		suspect, detail := p.barrierBlame("barrier release")
		if suspect != 3 {
			t.Errorf("suspect = %d, want 3", suspect)
		}
		if !strings.Contains(detail, "[3]") {
			t.Errorf("detail %q does not name the missing process", detail)
		}
	})

	t.Run("several missing names nobody", func(t *testing.T) {
		p := mk()
		arrived(p, 0, 2)
		suspect, detail := p.barrierBlame("barrier release")
		if suspect != -1 {
			t.Errorf("suspect = %d, want -1 (either of 1, 3 may just be wedged)", suspect)
		}
		if !strings.Contains(detail, "1") || !strings.Contains(detail, "3") {
			t.Errorf("detail %q should still list the missing processes", detail)
		}
	})

	t.Run("no arrivals yet tracks nothing", func(t *testing.T) {
		p := mk()
		if suspect, detail := p.barrierBlame("barrier release"); suspect != -1 || detail != "" {
			t.Errorf("empty ledger blamed p%d%s", suspect, detail)
		}
	})

	t.Run("bitmap round uses its own ledger", func(t *testing.T) {
		p := mk()
		// Arrival round complete and released, bitmap round missing only p2:
		// the flap of the root's own links during the second round must
		// blame p2, not whoever the spent arrival ledger shows.
		arrived(p, 0, 1, 3)
		p.tree.sent = true
		p.shard = &shardState{expect: n, got: n - 1, from: []bool{true, true, false, true}}
		suspect, _ := p.barrierBlame("barrier bitmap round")
		if suspect != 2 {
			t.Errorf("suspect = %d, want 2", suspect)
		}
	})

	t.Run("sharded round uses the shard ledger", func(t *testing.T) {
		p := mk()
		p.shard = &shardState{reduce: true, expect: n, got: n - 1, from: []bool{true, false, true, true}}
		suspect, _ := p.barrierBlame("barrier bitmap round")
		if suspect != 1 {
			t.Errorf("suspect = %d, want 1", suspect)
		}
	})
}

// TestNoteSuspectPrecedence pins how detection verdicts combine when
// link-death and barrier-timeout evidence arrive in the same epoch: the
// first verdict wins, except that hard link-death evidence overrides a
// circumstantial barrier-timeout, and an unidentified suspect may be
// sharpened by any later identified verdict.
func TestNoteSuspectPrecedence(t *testing.T) {
	mk := func() *System {
		s := newSys(t, 4, SingleWriter, false)
		s.resetSuspect()
		return s
	}
	check := func(t *testing.T, s *System, proc int, via string) {
		t.Helper()
		if gotP, gotV := s.suspectInfo(); gotP != proc || gotV != via {
			t.Errorf("suspect = (%d, %q), want (%d, %q)", gotP, gotV, proc, via)
		}
	}

	t.Run("first verdict wins", func(t *testing.T) {
		s := mk()
		s.noteSuspect(2, "barrier-timeout")
		s.noteSuspect(1, "barrier-timeout")
		check(t, s, 2, "barrier-timeout")
	})

	t.Run("link-death overrides barrier-timeout", func(t *testing.T) {
		s := mk()
		s.noteSuspect(1, "barrier-timeout")
		s.noteSuspect(3, "link-death")
		check(t, s, 3, "link-death")
	})

	t.Run("barrier-timeout never downgrades link-death", func(t *testing.T) {
		s := mk()
		s.noteSuspect(3, "link-death")
		s.noteSuspect(1, "barrier-timeout")
		check(t, s, 3, "link-death")
	})

	t.Run("anonymous link-death does not erase a named timeout", func(t *testing.T) {
		s := mk()
		s.noteSuspect(2, "barrier-timeout")
		s.noteSuspect(-1, "link-death")
		check(t, s, 2, "barrier-timeout")
	})

	t.Run("later verdicts sharpen an unidentified suspect", func(t *testing.T) {
		s := mk()
		s.noteSuspect(-1, "barrier-timeout")
		s.noteSuspect(2, "barrier-timeout")
		check(t, s, 2, "barrier-timeout")
	})

	t.Run("reset clears the verdict", func(t *testing.T) {
		s := mk()
		s.noteSuspect(3, "link-death")
		s.resetSuspect()
		check(t, s, -1, "")
	})
}

// TestCompoundBlameSameEpoch: a quiet death plus a wedged lock chain in
// one epoch — the victim dies holding a lock, so survivors queued on the
// lock wedge (a barrier-timeout with no nameable suspect) while the
// victim's silent links exhaust their retry budget (link-death with hard
// evidence). Whichever fires first, recovery must settle on the true
// victim and converge.
func TestCompoundBlameSameEpoch(t *testing.T) {
	for _, sc := range []recoveryScenario{tspScenario(), mwScenario()} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			baseRaces := sc.run(t, nil).Races()
			s := sc.run(t, &CrashPlan{Victim: 2, Epoch: 1, Point: CrashHoldingLock})
			rs := s.RecoveryStats()
			if rs.LastVictim != 2 {
				t.Errorf("blamed p%d (via %s), want the true victim p2", rs.LastVictim, rs.LastReason)
			}
			if got := s.Races(); !reflect.DeepEqual(got, baseRaces) {
				t.Errorf("races differ from the crash-free run's:\ncrash-free: %v\nrecovered:  %v",
					baseRaces, got)
			}
		})
	}
}

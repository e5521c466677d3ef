package dsm

import (
	"fmt"
	"sort"
	"time"

	"lrcrace/internal/mem"
	"lrcrace/internal/race"
	"lrcrace/internal/reliable"
	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"
)

// Coordinated rollback recovery.
//
// The failure model is fail-stop process crashes (see CrashPlan): the
// victim's endpoint goes silent and stays silent. Survivors detect the
// death through one of two paths — the reliable sublayer's retry-cap
// exhaustion (a link to the victim dies after MaxRetries unacked
// retransmissions), or the timeout every blocked reply wait raises once
// nothing more can arrive — and shut the network down, unwinding every
// process. Both fire on the scheduler's virtual clock. The driver then
// performs a coordinated rollback: it picks the latest epoch for which
// every process holds a checkpoint (the recovery line), rebuilds ALL N
// processes from their checkpoints at that line — the replacement for the
// dead process is respawned from its own last checkpoint through exactly
// the same path — reconciles cross-process protocol state (lock tenures
// last held by the dead process are reclaimed by their managers; the page
// directory is repaired), and re-executes the failed epoch. Because the
// checkpoints restore virtual clocks along with everything else, a
// recovered run reports the same races, the same final memory, and the
// same virtual time as a crash-free run.

// EpochFunc is the per-epoch application body used with RunEpochs: it
// performs epoch e's work, and RunEpochs supplies the barrier after it.
type EpochFunc func(p *Proc, epoch int32)

// RecoveryStats summarizes crash-recovery activity over a run.
type RecoveryStats struct {
	Recoveries      int   // coordinated rollbacks performed
	LocksReclaimed  int   // manager tenures reclaimed from the dead process
	PagesReconciled int   // directory entries repaired at restore
	VirtualNS       int64 // virtual time rolled back (lost work re-executed)
	WallNS          int64 // real time spent decoding and restoring state
	// VerifyFailures counts candidate recovery lines rejected because a
	// checkpoint's manifest or chunk closure failed its integrity check;
	// each rejection made rollback fall back one epoch.
	VerifyFailures int

	LastEpoch  int32  // recovery line of the most recent rollback
	LastVictim int    // suspected dead proc; -1 if never identified
	LastReason string // "link-death" or "barrier-timeout"
}

// timeoutPanic is the typed panic a blocked wait raises when nothing more
// can arrive: a deadlock. It carries the suspected dead process when the
// barrier master can name it (a proc missing from the arrival or
// bitmap-round bookkeeping); -1 otherwise.
type timeoutPanic struct {
	proc    int
	op      string
	suspect int
	detail  string
}

func (t timeoutPanic) String() string {
	return fmt.Sprintf("%s timed out: deadlock, nothing runnable and nothing in flight%s", t.op, t.detail)
}

// rollbackPlan is the decoded restore set a recovery attempt starts from.
type rollbackPlan struct {
	epoch     int32      // recovery line; 0 → restart from scratch
	procs     []*Proc    // processes decoded at the line; nil when epoch == 0
	det       race.State // the detector's state at the line
	virtualNS int64      // virtual time being rolled back
	started   time.Time  // wall-clock start of the rollback
	victim    int
}

// RunEpochs executes an epoch-structured application with crash recovery:
// each process runs appFactory's function once per epoch with a barrier
// after each (the final epoch's barrier is the run's last detection pass).
// If a process dies (CrashPlan) and Checkpoint is enabled, the run rolls
// back to the last barrier-epoch checkpoint line and re-executes the
// failed epoch; see RecoveryStats for what that cost.
//
// appFactory is invoked once per execution attempt, so per-run state inside
// the returned closure (gates, local counters) starts fresh after a
// rollback. Epoch bodies must not couple across epochs through such state:
// recovery re-executes only the failed epoch, not the ones before it.
func (s *System) RunEpochs(epochs int32, appFactory func() EpochFunc) error {
	if !s.ran {
		s.ran = true
		s.runErr = s.runEpochs(epochs, appFactory)
	}
	return s.runErr
}

// maxRecoveries caps coordinated rollbacks per RunEpochs run.
const maxRecoveries = 3

func (s *System) runEpochs(epochs int32, appFactory func() EpochFunc) error {
	s.epochMode = true
	if epochs < 1 {
		return fmt.Errorf("dsm: RunEpochs(%d): need at least one epoch", epochs)
	}
	s.initCheckpoints()
	var plan *rollbackPlan
	for {
		app := appFactory()
		if app == nil {
			return fmt.Errorf("dsm: RunEpochs: appFactory returned nil")
		}
		err := s.attempt(func(p *Proc) {
			for e := p.epoch; e < epochs; e++ {
				app(p, e)
				p.Barrier()
			}
		}, plan)
		if err == nil || !s.crashDetected() || !s.canRecover() || s.recStats.Recoveries >= maxRecoveries {
			return err
		}
		var rerr error
		plan, rerr = s.planRollback()
		if rerr != nil {
			return fmt.Errorf("dsm: recovery failed: %v (after %v)", rerr, err)
		}
	}
}

// canRecover reports whether coordinated rollback is possible: checkpoints
// are being taken.
func (s *System) canRecover() bool {
	return s.cfg.checkpointing() && s.ckpts != nil
}

// recoveryArmed reports whether the run must detect and name a crashed
// process: the run carries the reliability sublayer, and its link deaths
// feed the recovery machinery rather than just abort the run.
func (s *System) recoveryArmed() bool {
	return len(s.cfg.Crashes) > 0 || (s.epochMode && s.cfg.checkpointing())
}

// --- crash suspicion (the scheduler's panic classification and the
// reliable sublayer's link-death handler, both on the attempt's one thread
// of control, feed it; the rollback driver reads it after the attempt) ---

// resetSuspect clears the suspicion state for a new attempt.
func (s *System) resetSuspect() {
	s.suspect = -1
	s.suspectVia = ""
	s.crashSeen = false
	s.aliveProcs = nil
}

// noteSuspect records a detection verdict of an attempt. Link-death is
// hard evidence — the peer acknowledged nothing across the whole retry
// budget — and overrides an earlier circumstantial barrier-timeout
// verdict; otherwise the first verdict wins and later detections may only
// sharpen an unidentified suspect.
func (s *System) noteSuspect(proc int, via string) {
	switch {
	case s.suspectVia == "":
		s.suspect, s.suspectVia = proc, via
	case via == "link-death" && s.suspectVia != "link-death" && proc >= 0:
		s.suspect, s.suspectVia = proc, via
	case s.suspect < 0 && proc >= 0:
		s.suspect = proc
	}
}

// noteTimeoutVerdict reconciles one process's barrier-timeout blame before
// recording it. The accuser has demonstrably not died — it just raised a
// timeout — which sharpens multi-hop verdicts from the combining-tree
// barrier, where an interior node wedged behind a deeper victim is blamed
// by its parent while itself correctly blaming the victim below: an
// accuser displaces any earlier circumstantial verdict naming IT, and a
// verdict naming a proven-alive process is discarded (kept only as an
// unidentified detection). The final suspect is therefore the same
// whichever order the survivors' timeouts are raised in.
func (s *System) noteTimeoutVerdict(accuser, suspect int) {
	if s.aliveProcs == nil {
		s.aliveProcs = make(map[int]bool)
	}
	s.aliveProcs[accuser] = true
	if s.suspectVia == "barrier-timeout" && s.suspect == accuser {
		s.suspect = -1
	}
	if suspect >= 0 && s.aliveProcs[suspect] {
		suspect = -1
	}
	s.noteSuspect(suspect, "barrier-timeout")
}

// crashDetected reports whether the last attempt ended in a crash-class
// failure (injected crash observed, or a survivor-side detection fired) as
// opposed to a genuine application or protocol error.
func (s *System) crashDetected() bool {
	return s.crashSeen || s.suspectVia != ""
}

func (s *System) suspectInfo() (proc int, via string) {
	return s.suspect, s.suspectVia
}

// onLinkDead is the reliable sublayer's dead-link handler when recovery is
// armed: a link to an unresponsive peer exhausted its retry cap, so that
// peer is suspected dead. The sublayer then shuts the network down, which
// unwinds every survivor; the rollback driver takes over from there.
func (s *System) onLinkDead(from, to int) {
	s.noteSuspect(to, "link-death")
	s.tel.Emit(from, telemetry.KCrashDetected, 0, int64(to), 1, 0)
}

// --- attempt runner ---

// attempt builds a fresh transport, adopts plan's decoded processes (or
// builds fresh ones: no plan, or a restart from scratch), runs body on
// every process, and returns the root-cause error, if any. This is the
// single execution path behind both Run and RunEpochs. The transport
// carries the reliability sublayer exactly when the run needs it: the wire
// is lossy, or recovery is armed and a link death must name the victim.
func (s *System) attempt(body func(p *Proc), plan *rollbackPlan) error {
	n := s.cfg.NumProcs
	s.resetSuspect()
	nw := simnet.New(n)
	nw.SetTelemetry(s.tel)
	if err := nw.SetFaults(s.cfg.Faults); err != nil {
		return err
	}
	s.nw, s.wire, s.rel = nw, nw, nil
	if armed := s.recoveryArmed(); armed || s.cfg.Faults.Lossy() {
		rc := reliable.Config{Telemetry: s.tel}
		if armed {
			rc.OnLinkDead = s.onLinkDead
		}
		s.rel = reliable.Wrap(nw, n, rc)
		s.nw = s.rel
	}
	if s.wrapNet != nil {
		s.nw = s.wrapNet(s.nw)
	}
	for _, p := range s.procs {
		p.release() // the aborted attempt's: the plan's or fresh ones replace them
	}
	s.procs = nil
	if plan != nil {
		s.procs = plan.procs // nil when the plan restarts from scratch
	}
	if s.procs == nil {
		s.procs = make([]*Proc, n)
		for i := range s.procs {
			s.procs[i] = newProc(s, i)
		}
	}
	if plan != nil {
		if err := s.restoreFromPlan(plan); err != nil {
			return err
		}
	}

	return s.schedule(body)
}

// --- rollback ---

// planRollback selects the recovery line and decodes every process's
// checkpoint at it into a fresh process, verifying each manifest's chunk
// closure (the address is the hash, so decoding IS the integrity check).
// A line whose closure does not verify — a chunk tampered with, deleted,
// or a manifest bit-flipped — is rejected with a telemetry trip and
// rollback falls back to the next older epoch; if no stored epoch
// verifies, the plan is a full restart from the initial state (epoch 0,
// and a new detector's state). Nothing shared is touched until the next
// attempt adopts the plan. Called after a crash-aborted attempt has fully
// wound down.
func (s *System) planRollback() (*rollbackPlan, error) {
	n := s.cfg.NumProcs
	suspect, via := s.suspectInfo()
	victim := suspect
	if victim < 0 {
		for i, cp := range s.cfg.Crashes {
			if s.crashFired[i] {
				// Detection could not name the victim (e.g. a worker's timeout
				// with no master-side bookkeeping); fall back to the crash
				// plan's ground truth for labeling. Recovery itself never needs
				// the identity: all processes are rebuilt uniformly from the
				// recovery line.
				victim = cp.Victim
				break
			}
		}
	}
	if via == "" {
		via = "crash-observed"
	}
	abortedV := s.VirtualTime()
	plan := &rollbackPlan{
		started: time.Now(),
		victim:  victim,
		det:     race.NewDetector(s.layout, s.raceOpts).SnapshotState(),
	}
	var restoredV int64
	for re := s.ckpts.LatestCommonEpoch(n); re > 0; re-- {
		procs, det, maxV, err := s.decodeLine(re, n)
		if err != nil {
			s.recStats.VerifyFailures++
			s.tel.Emit(0, telemetry.KCkptVerifyFail, abortedV, int64(re), 0, 0)
			s.tel.Trip(telemetry.TripCkptVerify,
				fmt.Sprintf("checkpoint epoch %d failed verification: %v", re, err))
			continue
		}
		plan.epoch, plan.procs, plan.det, restoredV = re, procs, det, maxV
		break
	}
	plan.virtualNS = abortedV - restoredV
	if plan.virtualNS < 0 {
		plan.virtualNS = 0
	}
	s.recStats.Recoveries++
	s.recStats.LastEpoch = plan.epoch
	s.recStats.LastVictim = victim
	s.recStats.LastReason = via
	s.recStats.VirtualNS += plan.virtualNS
	s.tel.Emit(0, telemetry.KRecoveryStart, abortedV, int64(plan.epoch), int64(victim), 0)
	return plan, nil
}

// decodeLine decodes and verifies all n checkpoints at epoch re into fresh
// processes, returning them, the detector state the master's checkpoint
// carries, and the highest restored virtual clock. Any missing manifest,
// decode failure, or unresolvable chunk fails the whole line.
func (s *System) decodeLine(re int32, n int) ([]*Proc, race.State, int64, error) {
	procs := make([]*Proc, n)
	var det race.State
	var maxV int64
	for i := range procs {
		raw := s.ckpts.Get(i, re)
		if raw == nil {
			return nil, det, 0, fmt.Errorf("no checkpoint for proc %d at epoch %d", i, re)
		}
		p, st, err := decodeCheckpoint(s, i, raw, s.ckpts.Chunks())
		if err != nil {
			return nil, det, 0, fmt.Errorf("proc %d epoch %d: %w", i, re, err)
		}
		if st != nil {
			det = *st
		}
		maxV = max(maxV, p.vnow)
		procs[i] = p
	}
	return procs, det, maxV, nil
}

// restoreFromPlan puts the detector back to its state at the recovery line
// — on every rollback, a full restart included — and reconciles the
// adopted processes' cross-process state. Runs inside attempt, before any
// process starts.
func (s *System) restoreFromPlan(plan *rollbackPlan) error {
	if s.detector != nil {
		s.detector.RestoreState(plan.det)
	}
	if err := s.reconcileRestored(); err != nil {
		return err
	}
	wall := time.Since(plan.started).Nanoseconds()
	s.recStats.WallNS += wall
	s.tel.Emit(0, telemetry.KRecoveryDone, s.procs[0].vnow,
		int64(plan.epoch), plan.virtualNS, wall)
	return nil
}

// reconcileRestored repairs the cross-process protocol state after a
// uniform restore. Each checkpoint is internally consistent, but the
// processes do not checkpoint at the same instant: a fast process can
// depart the barrier and issue next-epoch requests before a slow one has
// checkpointed, so a manager's checkpoint may record tenure or directory
// hand-offs whose counterpart was rolled back — and the dead process may
// simply have died holding a lock. Both cases look the same after
// restore: the manager-side record points at a process whose own state
// shows no tenure. Reclaim those locks and repair the page directory.
func (s *System) reconcileRestored() error {
	n := s.cfg.NumProcs

	// Every node's per-epoch barrier state was clean at its checkpoint (the
	// release resets it before the departure cut), so a restored node just
	// realigns its barrier epoch with its process epoch.
	for _, q := range s.procs {
		q.tree.epoch = q.epoch
		q.tree.clear()
	}

	// Lock reclamation: a manager whose lastHolder has no tenure and no
	// grant obligation on its own side is pointing at a rolled-back future
	// or a dead holder; the manager reclaims the lock and will grant the
	// next request directly.
	for _, m := range s.procs {
		ids := make([]int, 0, len(m.locks))
		for id := range m.locks {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			ls := m.locks[id]
			if id%n != m.id || ls.lastHolder < 0 {
				continue
			}
			hs := s.procs[ls.lastHolder].locks[id]
			if hs == nil || (!hs.holding && !hs.releasedUngranted) {
				m.tel.Emit(m.id, telemetry.KLockReclaim, m.vnow,
					int64(id), int64(ls.lastHolder), 0)
				ls.lastHolder = -1
				s.recStats.LocksReclaimed++
			}
		}
	}

	// Page-directory repair (ownership protocols only): a directory entry
	// pointing at a process that does not own the page records an ownership
	// transfer that straddled the recovery line. Re-anchor it at a process
	// that still owns the page, or at any valid copy (every copy that
	// survived the barrier's write notices is current as of the line).
	if s.cfg.Protocol != MultiWriter {
		for i := 0; i < s.layout.NumPages; i++ {
			pg := mem.PageID(i)
			home := s.procs[i%n]
			o := home.dirOwner[pg]
			if o >= 0 && s.procs[o].owned[pg] {
				continue
			}
			newOwner := -1
			for _, q := range s.procs {
				if q.owned[pg] {
					newOwner = q.id
					break
				}
			}
			if newOwner < 0 {
				for _, q := range s.procs {
					if q.state[pg] != pageInvalid {
						newOwner = q.id
						break
					}
				}
			}
			if newOwner < 0 {
				return fmt.Errorf("page %d has no valid copy at the recovery line", pg)
			}
			s.procs[newOwner].owned[pg] = true
			home.dirOwner[pg] = newOwner
			s.recStats.PagesReconciled++
		}
	}
	return nil
}

// RecoveryStats returns cumulative crash-recovery counters for the run.
func (s *System) RecoveryStats() RecoveryStats { return s.recStats }

// CheckpointStats returns cumulative checkpoint counters for the run
// (zero if Checkpoint was not enabled).
func (s *System) CheckpointStats() CheckpointStats {
	if s.ckpts == nil {
		return CheckpointStats{}
	}
	return s.ckpts.Stats()
}

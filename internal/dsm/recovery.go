package dsm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
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
// retransmissions), or the barrier wall timeout on any blocked reply wait
// — and shut the network down, unwinding every process. The driver then
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

// timeoutPanic is the typed panic a reply wait raises when the barrier
// wall timeout expires. It carries the suspected dead process when the
// barrier master can name it (a proc missing from the arrival or
// bitmap-round bookkeeping); -1 otherwise.
type timeoutPanic struct {
	proc    int
	op      string
	timeout time.Duration
	suspect int
	detail  string
}

func (t timeoutPanic) String() string {
	return fmt.Sprintf("%s timed out after %v%s", t.op, t.timeout, t.detail)
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
// the returned closure (channel gates, local counters) starts fresh after a
// rollback. Epoch bodies must not couple across epochs through such state:
// recovery re-executes only the failed epoch, not the ones before it.
func (s *System) RunEpochs(epochs int32, appFactory func() EpochFunc) error {
	var err error
	s.runOnce.Do(func() { err = s.runEpochs(epochs, appFactory) })
	if err == nil && s.runErr != nil {
		err = s.runErr
	}
	return err
}

// maxRecoveries caps coordinated rollbacks per RunEpochs run.
const maxRecoveries = 3

func (s *System) runEpochs(epochs int32, appFactory func() EpochFunc) error {
	s.ran = true
	s.epochMode = true
	if epochs < 1 {
		s.runErr = fmt.Errorf("dsm: RunEpochs(%d): need at least one epoch", epochs)
		return s.runErr
	}
	s.initCheckpoints()
	var plan *rollbackPlan
	for {
		app := appFactory()
		if app == nil {
			s.runErr = fmt.Errorf("dsm: RunEpochs: appFactory returned nil")
			return s.runErr
		}
		err := s.attempt(func(p *Proc) {
			for e := p.epoch; e < epochs; e++ {
				app(p, e)
				p.Barrier()
			}
		}, plan)
		if err == nil {
			s.runErr = nil
			return nil
		}
		if !s.crashDetected() || !s.canRecover() || s.recStats.Recoveries >= maxRecoveries {
			s.runErr = err
			return err
		}
		var rerr error
		plan, rerr = s.planRollback()
		if rerr != nil {
			s.runErr = fmt.Errorf("dsm: recovery failed: %v (after %v)", rerr, err)
			return s.runErr
		}
	}
}

// canRecover reports whether coordinated rollback is possible: checkpoints
// are being taken and the transport can be rebuilt (the built-in simnet).
func (s *System) canRecover() bool {
	return s.cfg.checkpointing() && s.ckpts != nil && s.cfg.Transport == nil
}

// recoveryArmed reports whether link-death suspicion should feed the
// recovery machinery rather than just abort the run.
func (s *System) recoveryArmed() bool {
	return len(s.cfg.Crashes) > 0 || (s.epochMode && s.cfg.checkpointing())
}

// --- crash suspicion (shared by the reliable sublayer's timer goroutine,
// app-thread panic recovery, and the rollback driver) ---

// resetSuspectLocked clears the suspicion state for a new attempt and
// advances the attempt generation, which retires the previous attempt's
// link-death detector (see onLinkDead).
func (s *System) resetSuspectLocked() {
	s.recMu.Lock()
	s.attemptGen++
	s.suspect = -1
	s.suspectVia = ""
	s.crashSeen = false
	s.aliveProcs = nil
	s.recMu.Unlock()
}

// noteSuspect records a detection verdict of an attempt. Link-death is
// hard evidence — the peer's receive pump acknowledged nothing across the
// whole retry budget — and overrides an earlier circumstantial
// barrier-timeout verdict; otherwise the first verdict wins and later
// detections may only sharpen an unidentified suspect.
func (s *System) noteSuspect(proc int, via string) {
	s.recMu.Lock()
	switch {
	case s.suspectVia == "":
		s.suspect, s.suspectVia = proc, via
	case via == "link-death" && s.suspectVia != "link-death" && proc >= 0:
		s.suspect, s.suspectVia = proc, via
	case s.suspect < 0 && proc >= 0:
		s.suspect = proc
	}
	s.recMu.Unlock()
}

// noteTimeoutVerdict reconciles one process's barrier-timeout blame before
// recording it. The accuser has demonstrably not died — it just raised a
// timeout — which sharpens multi-hop verdicts from the combining-tree
// barrier, where an interior node wedged behind a deeper victim is blamed
// by its parent while itself correctly blaming the victim below: an
// accuser displaces any earlier circumstantial verdict naming IT, and a
// verdict naming a proven-alive process is discarded (kept only as an
// unidentified detection). The final suspect is therefore the same
// whichever order the survivors' timeouts fire in.
func (s *System) noteTimeoutVerdict(accuser, suspect int) {
	s.recMu.Lock()
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
	s.recMu.Unlock()
	s.noteSuspect(suspect, "barrier-timeout")
}

func (s *System) noteCrash() {
	s.recMu.Lock()
	s.crashSeen = true
	s.recMu.Unlock()
}

// crashDetected reports whether the last attempt ended in a crash-class
// failure (injected crash observed, or a survivor-side detection fired) as
// opposed to a genuine application or protocol error.
func (s *System) crashDetected() bool {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	return s.crashSeen || s.suspectVia != ""
}

func (s *System) suspectInfo() (proc int, via string) {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	return s.suspect, s.suspectVia
}

// onLinkDead is installed as the reliable sublayer's dead-link handler
// when recovery is armed: a link to an unresponsive peer exhausted its
// retry cap, so that peer is suspected dead. The network is shut down to
// unwind every survivor; the rollback driver takes over from there.
//
// gen and nw are the generation and transport of the attempt the handler
// was installed for. Several links to one dead peer give up within
// microseconds of each other, each on its own timer goroutine, and the
// first verdict starts the rollback: a later one can arrive after the next
// attempt has been built. It must not accuse anyone in that attempt, nor
// shut its network down — a verdict from a retired generation is dropped.
func (s *System) onLinkDead(gen int, nw Transport, from, to int) {
	s.recMu.Lock()
	stale := gen != s.attemptGen
	s.recMu.Unlock()
	if stale {
		return
	}
	s.noteSuspect(to, "link-death")
	s.tel.Emit(from, telemetry.KCrashDetected, 0, int64(to), 1, 0)
	nw.Close()
}

// --- attempt runner ---

// attempt builds a fresh transport, adopts plan's decoded processes (or
// builds fresh ones: no plan, or a restart from scratch), runs body on
// every process, and returns the root-cause error, if any. This is the
// single execution path behind both Run and RunEpochs.
func (s *System) attempt(body func(p *Proc), plan *rollbackPlan) error {
	n := s.cfg.NumProcs
	s.resetSuspectLocked()
	if s.cfg.Transport != nil {
		s.nw = s.cfg.Transport
	} else {
		nw := simnet.New(n)
		nw.SetTelemetry(s.tel)
		if err := nw.SetFaults(s.cfg.Faults); err != nil {
			return err
		}
		s.nw = nw
	}
	if s.cfg.Reliable {
		rc := s.cfg.ReliableConfig
		rc.Telemetry = s.tel
		var rt *reliable.Transport
		if s.recoveryArmed() {
			gen := s.attemptGen
			rc.OnLinkDead = func(from, to int) { s.onLinkDead(gen, rt, from, to) }
		}
		rt = reliable.Wrap(s.nw, n, rc)
		s.nw = rt
	}
	s.stop = make(chan struct{})
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

	var svcWG, appWG sync.WaitGroup
	for _, p := range s.procs {
		svcWG.Add(1)
		go func(p *Proc) {
			defer svcWG.Done()
			p.serviceLoop()
		}(p)
	}

	// Error classes, from most to least diagnostic: a genuine bug beats the
	// injected crash, which beats the detection timeout it provoked, which
	// beats the secondary "network shut down" panics either induces.
	const (
		errShutdown = iota
		errTimeout
		errCrash
		errGenuine
	)
	errs := make([]error, n)
	ranks := make([]int, n)
	for i, p := range s.procs {
		appWG.Add(1)
		go func(i int, p *Proc) {
			defer appWG.Done()
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				errs[i] = fmt.Errorf("dsm: proc %d panicked: %v", i, r)
				switch pv := r.(type) {
				case crashPanic:
					ranks[i] = errCrash
					s.noteCrash()
					// An injected crash does NOT shut the network down:
					// nothing announces a real machine's death either. The
					// survivors must detect it themselves, via link
					// retry-cap exhaustion or the barrier wall timeout.
					return
				case timeoutPanic:
					ranks[i] = errTimeout
					s.noteTimeoutVerdict(i, pv.suspect)
					s.tel.Trip(telemetry.TripBarrierTimeout,
						fmt.Sprintf("proc %d: %v", i, pv))
					s.tel.Emit(i, telemetry.KCrashDetected, 0, int64(pv.suspect), 0, 0)
				default:
					ranks[i] = errGenuine
					if strings.Contains(fmt.Sprint(r), "network shut down") {
						ranks[i] = errShutdown
					} else {
						// Dump the flight recorder for the root cause only,
						// not for every secondary panic it induces.
						s.tel.Trip(telemetry.TripProcPanic,
							fmt.Sprintf("proc %d panicked: %v", i, r))
					}
				}
				// Unblock peers waiting on this process.
				s.nw.Close()
			}()
			body(p)
		}(i, p)
	}
	appWG.Wait()
	// All application threads are done: break any service thread still
	// gated on a checkpoint that will never be cut (its app thread died
	// between popping the departure trigger and checkpointing), then shut
	// the transport down so the service loops drain and exit.
	close(s.stop)
	s.nw.Close()
	svcWG.Wait()

	var best error
	bestRank := -1
	for i, e := range errs {
		if e != nil && ranks[i] > bestRank {
			best, bestRank = e, ranks[i]
		}
	}
	return best
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
		for _, cp := range s.cfg.Crashes {
			if cp.Fired() {
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
// goroutine starts.
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

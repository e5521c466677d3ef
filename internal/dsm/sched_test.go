package dsm_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lrcrace/internal/apps"
	_ "lrcrace/internal/apps/tsp"
	_ "lrcrace/internal/apps/water"
	"lrcrace/internal/dsm"
	"lrcrace/internal/mem"
	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"
)

// runApp runs one registered application on a fresh System and checks its
// answer.
func runApp(t *testing.T, name string, scale float64, procs int, proto dsm.ProtocolKind, tr dsm.Tracer) *dsm.System {
	t.Helper()
	return runAppWith(t, name, scale, dsm.Config{NumProcs: procs, Protocol: proto, Detect: true, Tracer: tr})
}

// runAppWith is runApp under cfg, which gets the application's segment size.
func runAppWith(t *testing.T, name string, scale float64, cfg dsm.Config) *dsm.System {
	t.Helper()
	app, err := apps.New(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SharedSize = app.SharedBytes()
	sys, err := dsm.New(cfg)
	if err != nil {
		t.Fatal(err)
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

// TestSameInputSameRun: the lock applications, whose lock managers
// serialize requests in the order they are handled, run one interleaving
// per input — over a lossy wire under the reliable sublayer and through a
// crash and its rollback too, since retransmissions and link deaths fire
// on the scheduler's clock. Two runs of a configuration agree on virtual
// time, traffic, every process's counters, the race list and the recorded
// event sequence (wall-clock stamps aside) — which a walk over a Go map
// anywhere on the protocol path would shuffle.
func TestSameInputSameRun(t *testing.T) {
	for _, app := range []struct {
		name  string
		scale float64
	}{{"TSP", 0.02}, {"Water", 0.25}} {
		for _, procs := range []int{2, 4} {
			for _, proto := range []dsm.ProtocolKind{dsm.SingleWriter, dsm.MultiWriter} {
				t.Run(fmt.Sprintf("%s/p%d/%v", app.name, procs, proto), func(t *testing.T) {
					sameRun(t, func(rec *telemetry.Recorder) *dsm.System {
						return runAppWith(t, app.name, app.scale,
							dsm.Config{NumProcs: procs, Protocol: proto, Detect: true, Recorder: rec})
					})
				})
			}
		}
	}
	t.Run("TSP/p4/lossy", func(t *testing.T) {
		sys := sameRun(t, func(rec *telemetry.Recorder) *dsm.System {
			return runAppWith(t, "TSP", 0.02, dsm.Config{
				NumProcs: 4, Detect: true, Recorder: rec,
				Faults: &simnet.FaultPlan{Seed: 5, Drop: 0.1, Dup: 0.05, Reorder: 0.1, MaxReorder: 3},
			})
		})
		if st := sys.NetStats(); st.Retransmits == 0 || st.Deduped == 0 || st.Reordered == 0 {
			t.Errorf("the lossy wire exercised too little: %d retransmits, %d deduped, %d reordered",
				st.Retransmits, st.Deduped, st.Reordered)
		}
	})
	// Checkpointed epochs arm recovery, so even a crash-free run on a
	// lossless wire carries the sublayer and its deadlines.
	t.Run("epochs/checkpointed", func(t *testing.T) {
		sys := sameRun(t, func(rec *telemetry.Recorder) *dsm.System {
			return runCrashEpochs(t, nil, rec)
		})
		if !sys.CarriesSublayer() {
			t.Error("checkpointed RunEpochs ran without the reliability sublayer")
		}
		if rs := sys.RecoveryStats(); rs.Recoveries != 0 {
			t.Errorf("%d recoveries, want 0", rs.Recoveries)
		}
	})
	for _, point := range []dsm.CrashPoint{dsm.CrashMidInterval, dsm.CrashHoldingLock} {
		t.Run(fmt.Sprintf("crash/%v", point), func(t *testing.T) {
			sys := sameRun(t, func(rec *telemetry.Recorder) *dsm.System {
				return runCrashEpochs(t, &dsm.CrashPlan{Victim: 2, Epoch: 1, Point: point}, rec)
			})
			if rs := sys.RecoveryStats(); rs.Recoveries != 1 {
				t.Errorf("%d recoveries, want 1", rs.Recoveries)
			}
		})
	}
}

// sameRun runs a configuration twice, each time recording into a fresh
// unbounded recorder, reports every way the two runs differ, and returns
// the first.
func sameRun(t *testing.T, run func(rec *telemetry.Recorder) *dsm.System) *dsm.System {
	t.Helper()
	once := func() (*dsm.System, []telemetry.Event) {
		rec := telemetry.New(telemetry.Config{Procs: 4, Cap: -1})
		sys := run(rec)
		evs := rec.Events()
		for i := range evs {
			evs[i].Wall = 0
			if evs[i].Kind == telemetry.KRecoveryDone {
				evs[i].C = 0 // the rollback's wall time
			}
		}
		return sys, evs
	}
	a, ea := once()
	b, eb := once()
	if i := firstDiff(ea, eb); i >= 0 {
		t.Errorf("event sequences differ at event %d of %d/%d: %v, then %v",
			i, len(ea), len(eb), at(ea, i), at(eb, i))
	}
	if va, vb := a.VirtualTime(), b.VirtualTime(); va != vb {
		t.Errorf("virtual time %d, then %d", va, vb)
	}
	if na, nb := a.NetStats(), b.NetStats(); na != nb {
		t.Errorf("traffic differs:\n%+v\n%+v", na, nb)
	}
	for i, p := range a.Procs() {
		if sa, sb := p.Stats(), b.Procs()[i].Stats(); sa != sb {
			t.Errorf("p%d stats differ:\n%+v\n%+v", i, sa, sb)
		}
	}
	if !reflect.DeepEqual(a.Races(), b.Races()) {
		t.Errorf("race lists differ: %d reports, then %d", len(a.Races()), len(b.Races()))
	}
	ra, rb := a.RecoveryStats(), b.RecoveryStats()
	ra.WallNS, rb.WallNS = 0, 0
	if ra != rb {
		t.Errorf("recovery differs:\n%+v\n%+v", ra, rb)
	}
	return a
}

// runCrashEpochs runs three checkpointed epochs of lock-ordered increments
// and one racy write per process on four processes, with crash injected
// unless it is nil, and checks that no increment was lost or doubled
// across the rollback.
func runCrashEpochs(t *testing.T, crash *dsm.CrashPlan, rec *telemetry.Recorder) *dsm.System {
	t.Helper()
	cfg := dsm.Config{NumProcs: 4, SharedSize: 16 * 1024, PageSize: 1024, Detect: true, Recorder: rec}
	if crash != nil {
		cfg.Crashes = []*dsm.CrashPlan{crash}
	}
	sys, err := dsm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counter, _ := sys.AllocWords("counter", 1)
	racy, _ := sys.AllocWords("racy", 1)
	const epochs = 3
	err = sys.RunEpochs(epochs, func() dsm.EpochFunc {
		return func(p *dsm.Proc, e int32) {
			p.Lock(0)
			p.Write(counter, p.Read(counter)+1)
			p.Unlock(0)
			p.Write(racy, uint64(p.ID()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.SnapshotWord(counter); got != 4*epochs {
		t.Errorf("counter = %d, want %d", got, 4*epochs)
	}
	return sys
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []telemetry.Event) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// at renders event i of evs, or "end" past the last.
func at(evs []telemetry.Event, i int) string {
	if i < len(evs) {
		return evs[i].String()
	}
	return "end"
}

// lockCounter counts each process's acquisitions of one lock.
type lockCounter struct {
	lock int
	mu   sync.Mutex
	n    map[int]int
}

func (c *lockCounter) Acquire(proc, lock int) {
	if lock == c.lock {
		c.mu.Lock()
		c.n[proc]++
		c.mu.Unlock()
	}
}
func (*lockCounter) Read(int, mem.Addr)       {}
func (*lockCounter) Write(int, mem.Addr)      {}
func (*lockCounter) Release(int, int)         {}
func (*lockCounter) BarrierArrive(int, int32) {}
func (*lockCounter) BarrierDepart(int, int32) {}

// TestTinyWorkQueueShared: at a scale where the work queue holds a handful
// of prefixes, the manager of the queue lock (process 0) re-acquires it
// without a message hop. Lock is a scheduling point, so that cannot run
// ahead of its peers' earlier requests: every process gets the lock.
func TestTinyWorkQueueShared(t *testing.T) {
	for _, procs := range []int{2, 4} {
		c := &lockCounter{lock: 0, n: map[int]int{}} // tsp.QLock
		runApp(t, "TSP", 0.02, procs, dsm.SingleWriter, c)
		for p := 0; p < procs; p++ {
			if c.n[p] == 0 {
				t.Errorf("%d procs: p%d never acquired the work-queue lock (acquires %v)", procs, p, c.n)
			}
		}
	}
}

// TestDeadlockFailsFast: process 1 waits for a lock process 0 never
// releases. Nothing can arrive once every process is blocked, so the run
// fails at once with a timeout-class error naming the wait, instead of
// hanging.
func TestDeadlockFailsFast(t *testing.T) {
	sys, err := dsm.New(dsm.Config{NumProcs: 2, SharedSize: mem.DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	held := &dsm.Gate{}
	start := time.Now()
	err = sys.Run(func(p *dsm.Proc) {
		if p.ID() == 0 {
			p.Lock(0) // and never Unlock
			held.Open()
			return
		}
		p.Wait(held)
		p.Lock(0)
	})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("deadlock took %v to surface", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "timed out: deadlock") {
		t.Fatalf("err = %v, want a deadlock timeout", err)
	}
	// Process 0 waits at the final barrier for process 1, which waits for
	// the lock: the error names the wait and the process it lacks.
	if !strings.Contains(err.Error(), "barrier release") || !strings.Contains(err.Error(), "[1]") {
		t.Errorf("err = %v, want it to name the barrier wait and p1", err)
	}
}

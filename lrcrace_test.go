package lrcrace_test

import (
	"bytes"
	"strings"
	"testing"

	"lrcrace"
)

// TestFacadeQuickstart exercises the documented public-API flow.
func TestFacadeQuickstart(t *testing.T) {
	sys, err := lrcrace.New(lrcrace.Config{NumProcs: 2, SharedSize: 8192, Detect: true})
	if err != nil {
		t.Fatal(err)
	}
	x, err := sys.AllocWords("x", 1)
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Run(func(p *lrcrace.Proc) {
		p.Write(x, uint64(p.ID()))
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	races := lrcrace.DedupRaces(sys.Races())
	if len(races) != 1 || !races[0].WriteWrite() {
		t.Fatalf("races = %v", sys.Races())
	}
	if sym, ok := sys.SymbolAt(races[0].Addr); !ok || sym.Name != "x" {
		t.Errorf("symbol = %+v", sym)
	}
}

// TestFacadeHBDetector attaches the reference detector through the facade.
func TestFacadeHBDetector(t *testing.T) {
	hb := lrcrace.NewHBDetector(2)
	sys, err := lrcrace.New(lrcrace.Config{
		NumProcs: 2, SharedSize: 4096, Detect: true, Tracer: hb,
	})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := sys.AllocWords("x", 1)
	if err := sys.Run(func(p *lrcrace.Proc) {
		p.Write(x, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if len(hb.RacyAddrs()) != len(lrcrace.DedupRaces(sys.Races())) {
		t.Errorf("detectors disagree: hb=%v lrc=%v", hb.RacyAddrs(), sys.Races())
	}
}

// tee fans one run's events out to several tracers.
type tee []lrcrace.Tracer

func (t tee) each(f func(lrcrace.Tracer)) {
	for _, tr := range t {
		f(tr)
	}
}

func (t tee) Read(p int, a lrcrace.Addr)  { t.each(func(tr lrcrace.Tracer) { tr.Read(p, a) }) }
func (t tee) Write(p int, a lrcrace.Addr) { t.each(func(tr lrcrace.Tracer) { tr.Write(p, a) }) }
func (t tee) Acquire(p, l int)            { t.each(func(tr lrcrace.Tracer) { tr.Acquire(p, l) }) }
func (t tee) Release(p, l int)            { t.each(func(tr lrcrace.Tracer) { tr.Release(p, l) }) }
func (t tee) BarrierArrive(p int, e int32) {
	t.each(func(tr lrcrace.Tracer) { tr.BarrierArrive(p, e) })
}
func (t tee) BarrierDepart(p int, e int32) {
	t.each(func(tr lrcrace.Tracer) { tr.BarrierDepart(p, e) })
}

// TestFacadeReplay drives the §6.1 flow through the facade types: run 2 is
// the same Config with a site collector, and re-records run 1's lock order.
func TestFacadeReplay(t *testing.T) {
	run := func(tracer lrcrace.Tracer) *lrcrace.System {
		sys, err := lrcrace.New(lrcrace.Config{NumProcs: 2, SharedSize: 4096, Detect: true, Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		x, _ := sys.AllocWords("x", 1)
		if err := sys.Run(func(p *lrcrace.Proc) {
			p.Lock(0)
			p.Write(x, p.Read(x)+1)
			p.Unlock(0)
			_ = p.Read(x) // racy
		}); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	rec := lrcrace.NewSyncRecord()
	races := lrcrace.DedupRaces(run(rec).Races())
	if len(races) == 0 {
		t.Fatal("no race in run 1")
	}

	rec2 := lrcrace.NewSyncRecord()
	watch := lrcrace.NewSiteCollector(races[0].Addr)
	run(tee{rec2, watch})
	if !rec2.Equal(rec) {
		t.Errorf("run 2 lock order %v, run 1 %v", rec2.Order(0), rec.Order(0))
	}
	if len(watch.Sites()) == 0 {
		t.Error("no sites collected in run 2")
	}
}

// TestFacadeExperiment runs one small harness experiment.
func TestFacadeExperiment(t *testing.T) {
	res, err := lrcrace.RunExperiment(lrcrace.ExperimentConfig{
		App: "SOR", Scale: 0.1, Procs: 2, Detect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualNS == 0 || len(res.Races) != 0 {
		t.Errorf("unexpected result: vt=%d races=%v", res.VirtualNS, res.Races)
	}
}

func TestFacadeTable2(t *testing.T) {
	var buf bytes.Buffer
	lrcrace.WriteTable2(&buf)
	out := buf.String()
	for _, app := range lrcrace.Apps() {
		if !strings.Contains(out, app) {
			t.Errorf("Table 2 missing %s:\n%s", app, out)
		}
	}
	if !strings.Contains(out, "124716") {
		t.Errorf("Table 2 missing paper values:\n%s", out)
	}
}

// TestFacadeCrashRecovery drives the documented crash-tolerance flow:
// inject a fail-stop death, recover from the barrier-epoch checkpoints,
// and finish with correct memory (see docs/ROBUSTNESS.md).
func TestFacadeCrashRecovery(t *testing.T) {
	sys, err := lrcrace.New(lrcrace.Config{
		NumProcs:   3,
		SharedSize: 8192,
		Detect:     true,
		Crashes:    []*lrcrace.CrashPlan{{Victim: 1, Epoch: 1, Point: lrcrace.CrashMidInterval}},
	})
	if err != nil {
		t.Fatal(err)
	}
	slots, err := sys.AllocWords("slots", 3)
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 3
	err = sys.RunEpochs(epochs, func() lrcrace.EpochFunc {
		return func(p *lrcrace.Proc, e int32) {
			a := slots + lrcrace.Addr(p.ID()*8)
			p.Write(a, p.Read(a)+1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := sys.RecoveryStats()
	if rs.Recoveries != 1 || rs.LastVictim != 1 {
		t.Fatalf("recovery stats = %+v, want one rollback blaming p1", rs)
	}
	if cs := sys.CheckpointStats(); cs.Count == 0 || cs.Bytes == 0 {
		t.Errorf("checkpoint stats = %+v, want nonzero", cs)
	}
	for p := 0; p < 3; p++ {
		if got := sys.SnapshotWord(slots + lrcrace.Addr(p*8)); got != epochs {
			t.Errorf("slot %d = %d after recovery, want %d", p, got, epochs)
		}
	}
}

// TestFacadeConfigReuse: a Config is a value to build Systems from. Its
// crash plan fires once in each System built from it, so a second System
// from the same Config crashes and recovers just like the first.
func TestFacadeConfigReuse(t *testing.T) {
	cfg := lrcrace.Config{
		NumProcs:   3,
		SharedSize: 8192,
		Detect:     true,
		Crashes:    []*lrcrace.CrashPlan{{Victim: 1, Epoch: 1, Point: lrcrace.CrashMidInterval}},
	}
	for i := 0; i < 2; i++ {
		sys, err := lrcrace.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		slots, err := sys.AllocWords("slots", 3)
		if err != nil {
			t.Fatal(err)
		}
		err = sys.RunEpochs(3, func() lrcrace.EpochFunc {
			return func(p *lrcrace.Proc, e int32) {
				a := slots + lrcrace.Addr(p.ID()*8)
				p.Write(a, p.Read(a)+1)
			}
		})
		if err != nil {
			t.Fatalf("system %d: %v", i, err)
		}
		if rs := sys.RecoveryStats(); rs.Recoveries != 1 {
			t.Errorf("system %d recovered %d times, want 1", i, rs.Recoveries)
		}
	}
}

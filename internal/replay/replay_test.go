package replay

import (
	"strings"
	"testing"

	"lrcrace/internal/dsm"
	"lrcrace/internal/mem"
	"lrcrace/internal/race"
)

// The Tracer assertions live in a test file: replay.go cannot import dsm,
// because dsm's own tests import replay.
var (
	_ dsm.Tracer = (*SyncRecord)(nil)
	_ dsm.Tracer = (*SiteCollector)(nil)
)

// tee fans one run's events out to several tracers.
type tee []dsm.Tracer

func (t tee) each(f func(dsm.Tracer)) {
	for _, tr := range t {
		f(tr)
	}
}

func (t tee) Read(p int, a mem.Addr)       { t.each(func(tr dsm.Tracer) { tr.Read(p, a) }) }
func (t tee) Write(p int, a mem.Addr)      { t.each(func(tr dsm.Tracer) { tr.Write(p, a) }) }
func (t tee) Acquire(p, l int)             { t.each(func(tr dsm.Tracer) { tr.Acquire(p, l) }) }
func (t tee) Release(p, l int)             { t.each(func(tr dsm.Tracer) { tr.Release(p, l) }) }
func (t tee) BarrierArrive(p int, e int32) { t.each(func(tr dsm.Tracer) { tr.BarrierArrive(p, e) }) }
func (t tee) BarrierDepart(p int, e int32) { t.each(func(tr dsm.Tracer) { tr.BarrierDepart(p, e) }) }

func TestSyncRecordBasics(t *testing.T) {
	r := NewSyncRecord()
	r.Acquire(0, 1)
	r.Acquire(2, 1)
	r.Acquire(1, 3)
	if got := r.Order(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Order(1) = %v", got)
	}
	if got := r.Order(9); len(got) != 0 {
		t.Errorf("Order(9) = %v", got)
	}
	if len(r.Locks()) != 2 {
		t.Errorf("Locks = %v", r.Locks())
	}

	o := NewSyncRecord()
	o.Acquire(0, 1)
	o.Acquire(2, 1)
	o.Acquire(1, 3)
	if !r.Equal(o) {
		t.Error("identical records not equal")
	}
	o.Acquire(2, 3)
	if r.Equal(o) {
		t.Error("different records equal")
	}
}

func TestEnforcerOrder(t *testing.T) {
	r := NewSyncRecord()
	r.Acquire(2, 0)
	r.Acquire(1, 0)
	e := NewEnforcer(r)
	if e.MayProceed(0, 1) {
		t.Error("out-of-turn request allowed")
	}
	if !e.MayProceed(0, 2) {
		t.Error("in-turn request refused")
	}
	if !e.MayProceed(0, 1) {
		t.Error("now-in-turn request refused")
	}
	// Past recorded history: unconstrained.
	if !e.MayProceed(0, 3) {
		t.Error("post-history request refused")
	}
	// Unrecorded lock: unconstrained.
	if !e.MayProceed(7, 0) {
		t.Error("unrecorded lock constrained")
	}
}

// lockApp is a deterministic racy workload: every proc increments a locked
// counter and reads/writes a racy word.
func lockApp(ctr, racy mem.Addr, iters int) func(p *dsm.Proc) {
	return func(p *dsm.Proc) {
		for i := 0; i < iters; i++ {
			p.Lock(1)
			p.Write(ctr, p.Read(ctr)+1)
			p.Unlock(1)
			_ = p.Read(racy)
			if p.ID()%2 == 0 {
				p.Write(racy, uint64(p.ID()))
			}
		}
	}
}

// TestTwoRunScheme exercises the full §6.1 flow: run 1 detects races and
// records sync order; run 2 replays the order and captures the racing
// instructions for the conflicted address.
func TestTwoRunScheme(t *testing.T) {
	build := func(rec *SyncRecord, enf *Enforcer, watch *SiteCollector) (*dsm.System, mem.Addr, mem.Addr) {
		cfg := dsm.Config{
			NumProcs:   4,
			SharedSize: 8 * 1024,
			PageSize:   1024,
			Detect:     true,
		}
		var tracers tee
		if rec != nil {
			tracers = append(tracers, rec)
		}
		if enf != nil {
			cfg.SyncEnforcer = enf
		}
		if watch != nil {
			tracers = append(tracers, watch)
		}
		if len(tracers) > 0 {
			cfg.Tracer = tracers
		}
		sys, err := dsm.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctr, _ := sys.AllocWords("ctr", 1)
		racy, _ := sys.AllocWords("racy", 1)
		return sys, ctr, racy
	}

	// Run 1: record.
	rec := NewSyncRecord()
	sys1, ctr1, racy1 := build(rec, nil, nil)
	if err := sys1.Run(lockApp(ctr1, racy1, 5)); err != nil {
		t.Fatal(err)
	}
	races := race.DedupByAddr(sys1.Races())
	if len(races) == 0 {
		t.Fatal("run 1 found no races")
	}
	conflicted := races[0].Addr
	if conflicted != racy1 {
		t.Fatalf("conflicted address %#x, want %#x", conflicted, racy1)
	}
	if len(rec.Order(1)) == 0 {
		t.Fatal("no sync order recorded")
	}

	// Run 2: enforce the recorded order, watch the conflicted address, and
	// re-record to check the replay reproduced the ordering.
	rec2 := NewSyncRecord()
	watch := NewSiteCollector(conflicted)
	sys2, ctr2, _ := build(rec2, NewEnforcer(rec), watch)
	if err := sys2.Run(lockApp(ctr2, conflicted, 5)); err != nil {
		t.Fatal(err)
	}
	if got := sys2.SnapshotWord(ctr2); got != 20 {
		t.Errorf("replayed counter = %d, want 20", got)
	}
	if !rec.Equal(rec2) {
		t.Errorf("replay diverged:\n run1 lock1: %v\n run2 lock1: %v", rec.Order(1), rec2.Order(1))
	}

	sites := watch.Sites()
	if len(sites) == 0 {
		t.Fatal("no access sites captured")
	}
	var sawRead, sawWrite bool
	for _, s := range sites {
		if !strings.Contains(s.Func, "lockApp") {
			t.Errorf("site outside app code: %v", s)
		}
		if s.Line == 0 || s.File == "" {
			t.Errorf("unresolved site: %+v", s)
		}
		if s.Write {
			sawWrite = true
		} else {
			sawRead = true
		}
	}
	if !sawRead || !sawWrite {
		t.Errorf("sites must include both sides of the race: %v", sites)
	}
}

// TestReplayDeterminism: two enforced runs produce identical sync orders.
func TestReplayDeterminism(t *testing.T) {
	mk := func(rec *SyncRecord, enf *Enforcer) *SyncRecord {
		cfg := dsm.Config{NumProcs: 3, SharedSize: 4 * 1024, PageSize: 1024}
		out := NewSyncRecord()
		cfg.Tracer = out
		if enf != nil {
			cfg.SyncEnforcer = enf
		}
		sys, err := dsm.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctr, _ := sys.AllocWords("ctr", 1)
		if err := sys.Run(func(p *dsm.Proc) {
			for i := 0; i < 6; i++ {
				p.Lock(0)
				p.Write(ctr, p.Read(ctr)+1)
				p.Unlock(0)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if got := sys.SnapshotWord(ctr); got != 18 {
			t.Fatalf("ctr = %d", got)
		}
		_ = rec
		return out
	}
	first := mk(nil, nil)
	second := mk(nil, NewEnforcer(first))
	third := mk(nil, NewEnforcer(first))
	if !first.Equal(second) || !first.Equal(third) {
		t.Errorf("replayed orders diverge:\n1: %v\n2: %v\n3: %v",
			first.Order(0), second.Order(0), third.Order(0))
	}
}

func TestAccessSiteString(t *testing.T) {
	s := AccessSite{Proc: 2, Write: true, Func: "pkg.fn", File: "f.go", Line: 10}
	if got := s.String(); !strings.Contains(got, "write by P2") || !strings.Contains(got, "f.go:10") {
		t.Errorf("String = %q", got)
	}
}

package replay

import (
	"reflect"
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
// records sync order; run 2 is the same Config run again, which captures
// the racing instructions for the conflicted address and re-records the
// order to confirm it repeated.
func TestTwoRunScheme(t *testing.T) {
	build := func(tracer dsm.Tracer) (*dsm.System, mem.Addr, mem.Addr) {
		sys, err := dsm.New(dsm.Config{
			NumProcs:   4,
			SharedSize: 8 * 1024,
			PageSize:   1024,
			Detect:     true,
			Tracer:     tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctr, _ := sys.AllocWords("ctr", 1)
		racy, _ := sys.AllocWords("racy", 1)
		return sys, ctr, racy
	}

	// Run 1: record.
	rec := NewSyncRecord()
	sys1, ctr1, racy1 := build(rec)
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

	// Run 2: watch the conflicted address, and re-record to check that the
	// run repeated the ordering.
	rec2 := NewSyncRecord()
	watch := NewSiteCollector(conflicted)
	sys2, ctr2, _ := build(tee{rec2, watch})
	if err := sys2.Run(lockApp(ctr2, conflicted, 5)); err != nil {
		t.Fatal(err)
	}
	if got := sys2.SnapshotWord(ctr2); got != 20 {
		t.Errorf("run 2 counter = %d, want 20", got)
	}
	if !rec.Equal(rec2) {
		t.Errorf("run 2 diverged:\n run1 lock1: %v\n run2 lock1: %v", rec.Order(1), rec2.Order(1))
	}
	if !reflect.DeepEqual(sys1.Races(), sys2.Races()) {
		t.Errorf("run 2 reported different races:\n run1: %v\n run2: %v", sys1.Races(), sys2.Races())
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

// TestReplayDeterminism: three runs of one Config record one sync order,
// with nothing enforcing it.
func TestReplayDeterminism(t *testing.T) {
	mk := func() *SyncRecord {
		out := NewSyncRecord()
		sys, err := dsm.New(dsm.Config{NumProcs: 3, SharedSize: 4 * 1024, PageSize: 1024, Tracer: out})
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
		return out
	}
	first, second, third := mk(), mk(), mk()
	if len(first.Order(0)) != 18 {
		t.Fatalf("recorded %d tenures of lock 0, want 18", len(first.Order(0)))
	}
	if !first.Equal(second) || !first.Equal(third) {
		t.Errorf("orders diverge:\n1: %v\n2: %v\n3: %v",
			first.Order(0), second.Order(0), third.Order(0))
	}
}

func TestAccessSiteString(t *testing.T) {
	s := AccessSite{Proc: 2, Write: true, Func: "pkg.fn", File: "f.go", Line: 10}
	if got := s.String(); !strings.Contains(got, "write by P2") || !strings.Contains(got, "f.go:10") {
		t.Errorf("String = %q", got)
	}
}

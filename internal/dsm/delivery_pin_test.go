package dsm_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"lrcrace/internal/apps"
	_ "lrcrace/internal/apps/sor"
	_ "lrcrace/internal/apps/water"
	"lrcrace/internal/dsm"
	"lrcrace/internal/hbdet"
	"lrcrace/internal/mem"
	"lrcrace/internal/race"
	"lrcrace/internal/replay"
	"lrcrace/internal/simnet"
	"lrcrace/internal/trace"
)

// deliveryProgram is one program of the delivery-order pin: setup
// allocates on a fresh System and returns the body every process runs,
// and check verifies the result afterwards.
type deliveryProgram struct {
	name   string
	shared int
	setup  func(s *dsm.System) (body func(p *dsm.Proc), check func() error, err error)
}

// appProgram runs a registered application at scale.
func appProgram(name string, scale float64) deliveryProgram {
	app, err := apps.New(name, scale)
	if err != nil {
		panic(err)
	}
	return deliveryProgram{
		name:   name,
		shared: app.SharedBytes(),
		setup: func(s *dsm.System) (func(p *dsm.Proc), func() error, error) {
			app, _ := apps.New(name, scale)
			return app.Worker, func() error { return app.Verify(s) }, app.Setup(s)
		},
	}
}

// lockBarrierProgram: every process adds to a lock-protected counter, then
// writes its own word of a shared page, then crosses a barrier, three
// times over.
var lockBarrierProgram = deliveryProgram{
	name:   "lock+barrier",
	shared: 4 * mem.DefaultPageSize,
	setup: func(s *dsm.System) (func(p *dsm.Proc), func() error, error) {
		counter, err := s.AllocWords("counter", 1)
		if err != nil {
			return nil, nil, err
		}
		words, err := s.AllocWords("words", 64)
		if err != nil {
			return nil, nil, err
		}
		check := func() error {
			if got, want := s.SnapshotWord(counter), uint64(6*s.Config().NumProcs); got != want {
				return fmt.Errorf("counter = %d, want %d", got, want)
			}
			return nil
		}
		return func(p *dsm.Proc) {
			for e := 0; e < 3; e++ {
				for i := 0; i < 2; i++ {
					p.Lock(e % 2)
					p.Write(counter, p.Read(counter)+1)
					p.Unlock(e % 2)
				}
				p.Write(words+mem.Addr(8*((p.ID()+e)%64)), uint64(e))
				p.Read(words + mem.Addr(8*((p.ID()+1)%p.N())))
				p.Barrier()
			}
		}, check, nil
	},
}

var deliveryPipelines = []struct {
	name    string
	tree    int
	sharded bool
}{{"flat", 0, false}, {"sharded", 0, true}, {"tree-2", 2, false}}

// deliveryWires are the pinned wires. On the reordering one a pure
// acknowledgment often releases a held data envelope, so the pins also hold
// where the reliability sublayer sends the acknowledgments it owes.
var deliveryWires = []struct {
	name   string
	faults *simnet.FaultPlan
}{
	{"clean", nil},
	{"lossy", &simnet.FaultPlan{Seed: 9, Drop: 0.10, Dup: 0.05, Reorder: 0.10, MaxReorder: 3, JitterNS: 2000}},
	{"reordering", &simnet.FaultPlan{Seed: 3, Drop: 0.05, Dup: 0.20, Reorder: 0.50, MaxReorder: 2}},
}

// deliveryRun runs prog once under cfg and writes one line per handled
// delivery to h: (from, to, type, bytes, send vtime, arrival), then the
// run's traffic counters. It returns the finished System and the number of
// deliveries.
func deliveryRun(prog deliveryProgram, cfg dsm.Config, h hash.Hash) (*dsm.System, int, error) {
	cfg.SharedSize = prog.shared
	s, err := dsm.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	body, check, err := prog.setup(s)
	if err != nil {
		return nil, 0, err
	}
	n := 0
	s.SeeDeliveries(func(to int, d simnet.Delivery, arrival int64) {
		fmt.Fprintf(h, "%d %d %v %d %d %d\n", d.From, to, d.Msg.Type(), d.Bytes, d.VTime, arrival)
		n++
	})
	if err := s.Run(body); err != nil {
		return s, n, err
	}
	fmt.Fprintf(h, "%+v\n", s.NetStats())
	return s, n, check()
}

// TestDeliveryOrderPinned holds the order in which the scheduler hands
// deliveries to their handlers, with each one's wire metadata and virtual
// arrival, to testdata/delivery_pins.txt: SOR, Water and a lock+barrier
// program under the flat, sharded and tree-2 pipelines, on a clean wire and
// two faulty ones. A transport or scheduler edit that moves one delivery, one
// wire byte or one virtual nanosecond fails here. Rewrite the pins
// (-update-pins) only for a change meant to alter the schedule.
func TestDeliveryOrderPinned(t *testing.T) {
	progs := []deliveryProgram{appProgram("SOR", 0.25), appProgram("Water", 0.25), lockBarrierProgram}
	var b strings.Builder
	b.WriteString("# SHA-256 of each run's handled deliveries (from to type bytes vtime arrival) and traffic counters.\n")
	b.WriteString("# Rewrite with: go test ./internal/dsm -run TestDeliveryOrderPinned -update-pins\n")
	for _, prog := range progs {
		for _, pl := range deliveryPipelines {
			for _, w := range deliveryWires {
				h := sha256.New()
				cfg := dsm.Config{NumProcs: 4, Protocol: dsm.MultiWriter, Detect: true,
					BarrierTree: pl.tree, ShardedCheck: pl.sharded, Faults: w.faults}
				_, n, err := deliveryRun(prog, cfg, h)
				if err != nil {
					t.Fatalf("%s %s %s: %v", prog.name, pl.name, w.name, err)
				}
				fmt.Fprintf(&b, "%s %s %s %d %x\n", prog.name, pl.name, w.name, n, h.Sum(nil))
			}
		}
	}
	path := filepath.Join("testdata", "delivery_pins.txt")
	if dsm.UpdatePins() {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s:%d:\n got %s\nwant %s", path, i+1, g, w)
		}
	}
}

// TestRunTwoIsRunOne is why the §6.1 scheme needs no enforcer: attaching a
// tracer never moves the run. For three programs on every pinned wire and
// pipeline, under both writer protocols, a run with no tracer, with a
// replay.SyncRecord, a replay.SiteCollector, hbdet or a trace.Writer hands
// out the same deliveries and reports the same races, detector state and
// virtual time.
func TestRunTwoIsRunOne(t *testing.T) {
	progs := []deliveryProgram{lockBarrierProgram, appProgram("Water", 0.25), appProgram("SOR", 0.1)}
	tracers := []struct {
		name string
		of   func(n int) dsm.Tracer
	}{
		{"none", func(int) dsm.Tracer { return nil }},
		{"SyncRecord", func(int) dsm.Tracer { return replay.NewSyncRecord() }},
		{"SiteCollector", func(int) dsm.Tracer { return replay.NewSiteCollector(0) }},
		{"hbdet", func(n int) dsm.Tracer { return hbdet.New(n) }},
		{"trace.Writer", func(n int) dsm.Tracer {
			w, err := trace.NewWriter(io.Discard, n)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}},
	}
	type image struct {
		deliveries string
		races      []race.Report
		det        race.State
		virtualNS  int64
	}
	for _, prog := range progs {
		for _, pl := range deliveryPipelines {
			for _, w := range deliveryWires {
				for _, proto := range []dsm.ProtocolKind{dsm.SingleWriter, dsm.MultiWriter} {
					var want image
					for i, tr := range tracers {
						h := sha256.New()
						cfg := dsm.Config{NumProcs: 4, Protocol: proto, Detect: true,
							BarrierTree: pl.tree, ShardedCheck: pl.sharded, Faults: w.faults, Tracer: tr.of(4)}
						s, _, err := deliveryRun(prog, cfg, h)
						if err != nil {
							t.Fatalf("%s %s %s %v %s: %v", prog.name, pl.name, w.name, proto, tr.name, err)
						}
						got := image{fmt.Sprintf("%x", h.Sum(nil)), s.Races(), s.DetectorState(), s.VirtualTime()}
						if i == 0 {
							want = got
						} else if !reflect.DeepEqual(got, want) {
							t.Errorf("%s %s %s %v: the run with %s differs from the run with no tracer",
								prog.name, pl.name, w.name, proto, tr.name)
						}
					}
				}
			}
		}
	}
}

// TestConcurrentSystemsShareNothing runs the lock+barrier program on
// eight Systems at once, half on a lossy wire, each in its own goroutine
// with its own checkpoint store and its own tracers (hbdet, a
// replay.SyncRecord and a replay.SiteCollector, none of which takes a
// lock). Every run must hand out the deliveries a run alone does and leave
// its tracers as a run alone does: nothing on the send or delivery path,
// in a checkpoint's chunk store or in a tracer is shared between Systems
// or touched off the run's thread (run it under -race).
func TestConcurrentSystemsShareNothing(t *testing.T) {
	const systems = 8
	type result struct {
		deliveries string
		racy       []mem.Addr
		order      *replay.SyncRecord
		sites      []replay.AccessSite
	}
	run := func(i int) (result, error) {
		h := sha256.New()
		hb, rec, watch := hbdet.New(4), replay.NewSyncRecord(), replay.NewSiteCollector(0)
		cfg := dsm.Config{NumProcs: 4, Protocol: dsm.MultiWriter, Detect: true,
			Faults: deliveryWires[i%2].faults, Tracer: dsm.Tee{hb, rec, watch}}
		_, _, err := deliveryRun(lockBarrierProgram, cfg, h)
		return result{fmt.Sprintf("%x", h.Sum(nil)), hb.RacyAddrs(), rec, watch.Sites()}, err
	}
	alone := make([]result, 2)
	for i := range alone {
		var err error
		if alone[i], err = run(i); err != nil {
			t.Fatal(err)
		}
		if len(alone[i].racy) == 0 || len(alone[i].order.Order(0)) == 0 || len(alone[i].sites) == 0 {
			t.Fatalf("%s wire: a tracer saw nothing, so comparing it proves nothing", deliveryWires[i].name)
		}
	}
	got := make([]result, systems)
	errs := make([]error, systems)
	var wg sync.WaitGroup
	for i := 0; i < systems; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = run(i)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		want, wire := alone[i%2], deliveryWires[i%2].name
		switch {
		case errs[i] != nil:
			t.Errorf("system %d: %v", i, errs[i])
		case g.deliveries != want.deliveries:
			t.Errorf("system %d (%s wire): deliveries differ from a run alone", i, wire)
		case !slices.Equal(g.racy, want.racy) || !g.order.Equal(want.order) || !reflect.DeepEqual(g.sites, want.sites):
			t.Errorf("system %d (%s wire): tracers differ from a run alone", i, wire)
		}
	}
}

package dsm_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lrcrace/internal/apps"
	_ "lrcrace/internal/apps/sor"
	_ "lrcrace/internal/apps/water"
	"lrcrace/internal/dsm"
	"lrcrace/internal/mem"
	"lrcrace/internal/simnet"
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
// run's traffic counters. It returns the number of deliveries.
func deliveryRun(prog deliveryProgram, cfg dsm.Config, h hash.Hash) (int, error) {
	cfg.SharedSize = prog.shared
	s, err := dsm.New(cfg)
	if err != nil {
		return 0, err
	}
	body, check, err := prog.setup(s)
	if err != nil {
		return 0, err
	}
	n := 0
	s.SeeDeliveries(func(to int, d simnet.Delivery, arrival int64) {
		fmt.Fprintf(h, "%d %d %v %d %d %d\n", d.From, to, d.Msg.Type(), d.Bytes, d.VTime, arrival)
		n++
	})
	if err := s.Run(body); err != nil {
		return n, err
	}
	fmt.Fprintf(h, "%+v\n", s.NetStats())
	return n, check()
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
				n, err := deliveryRun(prog, cfg, h)
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

// TestConcurrentSystemsShareNothing runs the lock+barrier program on
// eight Systems at once, half on a lossy wire, each in its own goroutine.
// Every run must hand out the deliveries a run alone does: nothing on the
// send or delivery path is shared between Systems (run it under -race).
func TestConcurrentSystemsShareNothing(t *testing.T) {
	const systems = 8
	cfgOf := func(i int) dsm.Config {
		return dsm.Config{NumProcs: 4, Protocol: dsm.MultiWriter, Detect: true,
			Faults: deliveryWires[i%2].faults}
	}
	run := func(i int) (string, error) {
		h := sha256.New()
		_, err := deliveryRun(lockBarrierProgram, cfgOf(i), h)
		return fmt.Sprintf("%x", h.Sum(nil)), err
	}
	alone := make([]string, 2)
	for i := range alone {
		var err error
		if alone[i], err = run(i); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]string, systems)
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
		if errs[i] != nil {
			t.Errorf("system %d: %v", i, errs[i])
		} else if g != alone[i%2] {
			t.Errorf("system %d (%s wire): deliveries differ from a run alone", i, deliveryWires[i%2].name)
		}
	}
}

package gofront_test

import (
	"reflect"
	"testing"

	"lrcrace/internal/gofront"
)

// TestRecordTraceOffChangesNothing runs programs as test binaries do
// (trace recorded) and as every other binary does (no trace), and requires
// the same outcome both ways: the trace is a test oracle's input, never the
// detector's. With recording off, a load plus a store allocates nothing.
func TestRecordTraceOffChangesNothing(t *testing.T) {
	kv := func() *gofront.Result {
		res, err := gofront.RunWorkload("KV", gofront.WorkloadConfig{
			Clients: 8, Ops: 120, HotKeySkew: 0.5, Racy: true, Seed: 3, Detect: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	runs := map[string]func() *gofront.Result{
		"KV":        kv,
		"random/7":  func() *gofront.Result { return gofront.RunRandomProgram(7, nil) },
		"random/31": func() *gofront.Result { return gofront.RunRandomProgram(31, nil) },
	}
	traced := map[string]*gofront.Result{}
	for name, run := range runs {
		if traced[name] = run(); len(traced[name].Trace()) == 0 {
			t.Fatalf("%s: test binary recorded no trace", name)
		}
	}
	if len(traced["KV"].Races) == 0 {
		t.Fatal("racy KV reported no race: the comparison below would be vacuous")
	}

	gofront.RecordTraceOff(t)
	for name, run := range runs {
		on, off := traced[name], run()
		if off.Trace() != nil {
			t.Errorf("%s: %d trace events recorded with recording off", name, len(off.Trace()))
		}
		if !reflect.DeepEqual(on.Races, off.Races) || !reflect.DeepEqual(on.RacyAddrs, off.RacyAddrs) ||
			on.Stats != off.Stats || on.VirtualNS != off.VirtualNS || on.Deadlocked != off.Deadlocked {
			t.Errorf("%s: recording moved the run:\n on  %d races %v %+v vt=%d dl=%v\n off %d races %v %+v vt=%d dl=%v", name,
				len(on.Races), on.RacyAddrs, on.Stats, on.VirtualNS, on.Deadlocked,
				len(off.Races), off.RacyAddrs, off.Stats, off.VirtualNS, off.Deadlocked)
		}
	}

	p := gofront.New(gofront.Config{Detect: true})
	x := p.Alloc("x", 1)
	var allocs float64
	p.Run(func(g *gofront.G) {
		allocs = gofront.LeastAllocs(100, func() { g.Store(x, g.Load(x)+1) })
	})
	if allocs != 0 {
		t.Errorf("a Load plus a Store allocates %v times with recording off, want 0", allocs)
	}
}

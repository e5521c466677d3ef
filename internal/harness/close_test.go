package harness

import (
	"reflect"
	"sync"
	"testing"

	"lrcrace/internal/dsm"
	"lrcrace/internal/race"
)

// TestConcurrentRunsShareNoFrames: every Run hands its page frames back to
// the one process-wide pool, so runs at the same time draw on each other's
// frames. Two runs in parallel (FFT and Water, the second under
// multi-writer for twins) report the same races, virtual time and
// verification outcome as the same two in sequence: no frame reaches a new
// owner while an old one still uses it. Run it under -race.
func TestConcurrentRunsShareNoFrames(t *testing.T) {
	cfgs := []RunConfig{
		{App: "FFT", Scale: 0.25, Procs: 4, Detect: true},
		{App: "Water", Scale: 0.25, Procs: 4, Detect: true, DSM: dsm.Config{Protocol: dsm.MultiWriter}},
	}
	type outcome struct {
		races     []race.Report
		virtualNS int64
		err       error
	}
	run := func(cfg RunConfig) outcome {
		res, err := Run(cfg)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{races: res.Races, virtualNS: res.VirtualNS}
	}
	alone := make([]outcome, len(cfgs))
	for i, cfg := range cfgs {
		if alone[i] = run(cfg); alone[i].err != nil {
			t.Fatalf("%s alone: %v", cfg.App, alone[i].err)
		}
	}
	together := make([]outcome, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg RunConfig) {
			defer wg.Done()
			together[i] = run(cfg)
		}(i, cfg)
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if !reflect.DeepEqual(together[i], alone[i]) {
			t.Errorf("%s in parallel: %d races at %d ns (err %v); alone: %d races at %d ns",
				cfg.App, len(together[i].races), together[i].virtualNS, together[i].err, len(alone[i].races), alone[i].virtualNS)
		}
	}
}

package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	_ "lrcrace/internal/apps/kv" // registers the KV and Sessions workloads
	"lrcrace/internal/gofront"
	"lrcrace/internal/telemetry"
)

// gofrontVariant is one program of the gofront-kv iteration.
type gofrontVariant struct {
	workload string
	racy     bool
}

func (v gofrontVariant) String() string {
	if v.racy {
		return v.workload + "/racy"
	}
	return v.workload + "/clean"
}

var gofrontVariants = []gofrontVariant{{"KV", true}, {"KV", false}, {"Sessions", true}, {"Sessions", false}}

const (
	gofrontClients = 8
	gofrontSkew    = 0.5
	// gofrontSlots is how many distinct seeds one iteration runs. Each
	// slot's runs are deterministic, so every later iteration must reproduce
	// the first one's statistics exactly.
	gofrontSlots = 4
)

// gofrontOps is the per-client op count, sized so one run takes ~15 ms.
func gofrontOps(e *env, workload string) int {
	if e.tiny {
		return 8
	}
	if workload == "KV" {
		return 480
	}
	return 288
}

type gofrontInst struct {
	// first[slot][variant] is the first visit's detection-on statistics.
	first [gofrontSlots]map[string]gofront.Stats
}

func (w *gofrontInst) close() {}

func observeGofront(r *gofront.Result) observation {
	o := observation{
		exact: map[string]int64{
			"virtual_ns":     r.VirtualNS,
			"loads":          int64(r.Stats.Loads),
			"stores":         int64(r.Stats.Stores),
			"syncs":          int64(r.Stats.Syncs),
			"intervals":      int64(r.Stats.Intervals),
			"pairs_examined": int64(r.Stats.PairsExamined),
			"check_entries":  int64(r.Stats.CheckEntries),
			"sched_steps":    r.Stats.SchedSteps,
		},
	}
	for _, a := range r.RacyAddrs {
		if sym, ok := r.SymbolAt(a); ok {
			o.racy = append(o.racy, sym)
		} else {
			o.racy = append(o.racy, fmt.Sprintf("0x%x", uint64(a)))
		}
	}
	sort.Strings(o.racy)
	return o
}

// runOne runs one variant under one seed slot, detection on or off, and
// holds a detection-on result to its first visit and its golden.
func (w *gofrontInst) runOne(e *env, t *tally, slot int, v gofrontVariant, detect, traced, check bool) (*gofront.Result, error) {
	seed := e.seed*1000 + int64(slot)
	cfg := gofront.WorkloadConfig{
		Clients: gofrontClients, Ops: gofrontOps(e, v.workload), HotKeySkew: gofrontSkew,
		Racy: v.racy, Seed: seed, Detect: detect,
	}
	if traced {
		cfg.Recorder = telemetry.New(telemetry.Config{Procs: gofrontClients + 2})
	}
	t.attempted++
	res, err := gofront.RunWorkload(v.workload, cfg)
	if err == nil && res.Deadlocked {
		err = fmt.Errorf("deadlocked")
	}
	if err != nil {
		t.fail("%s/%v seed %d: %v", wGoFront, v, seed, err)
		return nil, err
	}
	if !detect {
		return res, nil
	}
	if !v.racy && len(res.Races) > 0 {
		t.fail("%s/%v seed %d: %d races in the race-free variant", wGoFront, v, seed, len(res.Races))
	}
	if w.first[slot] == nil {
		w.first[slot] = map[string]gofront.Stats{}
	}
	if prev, seen := w.first[slot][v.String()]; !seen {
		w.first[slot][v.String()] = res.Stats
	} else if prev != res.Stats {
		t.fail("%s/%v seed %d: statistics did not repeat: %+v then %+v", wGoFront, v, seed, prev, res.Stats)
	}
	if check {
		key := fmt.Sprintf("%s/seed=%d/slot=%d/%v", wGoFront, e.seed, slot, v)
		if bad := e.golden.observe(key, true, observeGofront(res)); len(bad) > 0 {
			t.fail("%s", bad[0])
		}
	}
	return res, nil
}

// iteration runs every variant under every seed slot, detection on and off.
// One iteration covers all slots so that its per-op time averages over the
// schedules: how much detector work a schedule causes depends on its seed.
func (w *gofrontInst) iteration(e *env, t *tally, i int, traced, check bool) {
	tr := e.spans(traced)
	root := tr.begin(wGoFront+".iteration", -1, i, 0)
	defer tr.end(root)

	var wallOn, wallOff, clientOps, steps int64
	var mallocs uint64
	slots := gofrontSlots
	if e.tiny {
		slots = 1
	}
	for slot := 0; slot < slots; slot++ {
		for _, v := range gofrontVariants {
			e.cal.sample()
			for _, detect := range []bool{true, false} {
				var m0, m1 runtime.MemStats
				if traced && detect {
					runtime.ReadMemStats(&m0)
				}
				sp := tr.begin(fmt.Sprintf("gofront.RunWorkload %v slot=%d detect=%v", v, slot, detect), root, i, 0)
				t0 := time.Now()
				res, err := w.runOne(e, t, slot, v, detect, traced, check)
				wall := time.Since(t0).Nanoseconds()
				tr.end(sp)
				if err != nil {
					return
				}
				if !detect {
					wallOff += wall
					steps += res.Stats.SchedSteps
					continue
				}
				if traced {
					runtime.ReadMemStats(&m1)
					mallocs += m1.Mallocs - m0.Mallocs
				}
				wallOn += wall
				clientOps += int64(gofrontClients * gofrontOps(e, v.workload))
			}
		}
	}
	t.ops += 2 * clientOps // the detection-off runs serve the same ops
	t.add("gofront.step_ns", float64(wallOff)/float64(steps))
	t.add("gofront.detect_share", 1-float64(wallOff)/float64(wallOn))
	if traced {
		t.opNSTraced = append(t.opNSTraced, float64(wallOn)/float64(clientOps))
		t.add("gofront.allocs_per_op", float64(mallocs)/float64(clientOps))
	} else {
		t.opNS = append(t.opNS, float64(wallOn)/float64(clientOps))
		t.opNSBase = append(t.opNSBase, float64(wallOff)/float64(clientOps))
	}
}

// exactRatios reports the detector-work ratios over the slots.
func (w *gofrontInst) exactRatios(t *tally) {
	var syncs, pairs, entries, gced, intervals int
	for _, slot := range w.first {
		for _, st := range slot {
			syncs += st.Syncs
			pairs += st.PairsExamined
			entries += st.CheckEntries
			gced += st.RecordsGCed
			intervals += st.Intervals
		}
	}
	if syncs == 0 || intervals == 0 {
		return
	}
	t.add("gofront.pairs_per_sync", float64(pairs)/float64(syncs))
	t.add("gofront.check_entries_per_sync", float64(entries)/float64(syncs))
	t.add("gofront.records_gced_share", float64(gced)/float64(intervals))
}

func (w *gofrontInst) run(e *env, t *tally, more func() bool) {
	iterate(e, t, more, func(i int, traced bool) { w.iteration(e, t, i, traced, !e.tiny) })
	w.exactRatios(t)
}

var gofrontWorkload = workload{
	name: wGoFront,
	why:  "same vc + bitmap kernel used differently: interval per sync op, close-time pair scan, horizon GC, no messages or pages; shows a kernel change tuned for the DSM barrier that costs the Go frontend",
	op:   "client operation",
	setup: func(e *env) (instance, error) {
		w := &gofrontInst{}
		return w, warmUp(func(t *tally) { w.iteration(e, t, -1, false, false) })
	},
}

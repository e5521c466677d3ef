package harness

import (
	"fmt"
	"strconv"
	"time"

	"lrcrace/internal/gofront"
	"lrcrace/internal/telemetry"
)

// runGoFront executes a go-frontend workload run: cfg.App names a
// registered gofront workload, cfg.Procs is the client count, and the
// result carries the gofront race set and stats in place of the DSM state.
func runGoFront(cfg RunConfig) (*Result, error) {
	// Rings are per goroutine here; workloads add a few service goroutines
	// (janitor, actors) on top of the clients. Events from ids beyond this
	// land on the system ring.
	rec := recorderFor(cfg, cfg.Procs+2)
	start := time.Now()
	gres, err := gofront.RunWorkload(cfg.App, gofront.WorkloadConfig{
		Clients:    cfg.Procs,
		Ops:        cfg.OpsPerClient,
		Scale:      cfg.Scale,
		HotKeySkew: cfg.HotKeySkew,
		Racy:       cfg.Racy,
		Seed:       cfg.Seed,
		Detect:     cfg.Detect,
		Recorder:   rec,
	})
	if err != nil {
		return nil, err
	}
	if gres.Deadlocked {
		return nil, fmt.Errorf("harness: go-frontend workload %s deadlocked", cfg.App)
	}
	res := &Result{
		Cfg:       cfg,
		GoFront:   gres,
		VirtualNS: gres.VirtualNS,
		WallNS:    time.Since(start).Nanoseconds(),
		Races:     gres.Races,
	}
	if rec != nil {
		res.Telemetry = rec
		res.FillMetrics(rec.Metrics())
	}
	return res, nil
}

// fillGoFrontMetrics publishes a go-frontend run's counters as gofront_*
// series, plus the shared races_found_total and run_* series the DSM path
// also exports, so sweep aggregation reads both frontends uniformly.
func (r *Result) fillGoFrontMetrics(reg *telemetry.Registry) {
	st := r.GoFront.Stats
	w := telemetry.Label{Key: "workload", Value: r.Cfg.App}
	for _, c := range []struct {
		name, help string
		v          int64
	}{
		{"gofront_goroutines_total", "Goroutines the program spawned.", int64(st.Goroutines)},
		{"gofront_loads_total", "Modeled shared loads.", int64(st.Loads)},
		{"gofront_stores_total", "Modeled shared stores.", int64(st.Stores)},
		{"gofront_sync_ops_total", "Synchronization operations committed.", int64(st.Syncs)},
		{"gofront_chan_ops_total", "Channel operations committed.", int64(st.ChanOps)},
		{"gofront_lock_ops_total", "Mutex and RWMutex operations committed.", int64(st.LockOps)},
		{"gofront_wg_ops_total", "WaitGroup operations committed.", int64(st.WGOps)},
		{"gofront_spawn_ops_total", "Go and Join operations committed.", int64(st.SpawnOps)},
		{"gofront_intervals_total", "Interval records materialized.", int64(st.Intervals)},
		{"gofront_pairs_examined_total", "Record pairs version-vector-compared.", int64(st.PairsExamined)},
		{"gofront_concurrent_pairs_total", "Record pairs found concurrent.", int64(st.ConcurrentPairs)},
		{"gofront_check_entries_total", "Bitmap-comparison check entries built.", int64(st.CheckEntries)},
		{"gofront_bitmaps_compared_total", "Bitmap pairs fetched and compared.", int64(st.BitmapsCompared)},
		{"gofront_word_overlaps_total", "Racing words found before dedup.", int64(st.WordOverlaps)},
		{"gofront_records_gced_total", "Records retired by the knowledge-horizon GC.", int64(st.RecordsGCed)},
		{"gofront_sched_steps_total", "Deterministic scheduler steps.", st.SchedSteps},
	} {
		reg.Counter(c.name, c.help, w).Add(c.v)
	}
	reg.Counter("races_found_total", "Dynamic race reports delivered.").Add(int64(len(r.Races)))
	reg.Gauge("run_virtual_ns", "End-to-end virtual runtime.").Set(float64(r.VirtualNS))
	reg.Gauge("run_wall_ns", "End-to-end wall-clock runtime.").Set(float64(r.WallNS))
	reg.Gauge("gofront_clients", "Traffic-driving client goroutines.",
		w, telemetry.Label{Key: "racy", Value: strconv.FormatBool(r.Cfg.Racy)}).
		Set(float64(r.Cfg.Procs))
}

package main

import (
	"time"

	"lrcrace/internal/dsm"
	"lrcrace/internal/harness"
	"lrcrace/internal/race"
	"lrcrace/internal/telemetry"
)

// dsmObs is what the bench reads off one finished DSM program run, all of
// it from counters the program already exports.
type dsmObs struct {
	wallNS, virtualNS int64
	accesses          int64 // SharedReads + SharedWrites over all processes
	faults            int64
	intervals         int64
	barriers          int64 // summed over processes
	lockAcquires      int64
	readNoticeBytes   int64
	diffWords         int64
	msgs, bytes       int64
	det               race.Stats
	reports           int
	distinct          int
	ckpt              dsm.CheckpointStats
}

// observeSystem gathers a finished System's counters.
func observeSystem(sys *dsm.System, wallNS int64) dsmObs {
	o := dsmObs{
		wallNS:    wallNS,
		virtualNS: sys.VirtualTime(),
		det:       sys.DetectorStats(),
		reports:   len(sys.Races()),
		distinct:  len(race.DedupByAddr(sys.Races())),
		ckpt:      sys.CheckpointStats(),
	}
	net := sys.NetStats()
	o.msgs, o.bytes = net.TotalMessages(), net.TotalBytes()
	for _, p := range sys.Procs() {
		st := p.Stats()
		o.accesses += st.SharedReads + st.SharedWrites
		o.faults += st.ReadFaults + st.WriteFaults
		o.intervals += st.IntervalsCreated
		o.barriers += st.Barriers
		o.lockAcquires += st.LockAcquires
		o.readNoticeBytes += st.ReadNoticeBytes
		o.diffWords += st.DiffWords
	}
	return o
}

// dsmIter accumulates one iteration's runs into the per-layer counts.
type dsmIter struct {
	sum      dsmObs
	slowdown []float64 // detection-on / detection-off virtual time, per program
}

func (it *dsmIter) addRun(o dsmObs) {
	s := &it.sum
	s.faults += o.faults
	s.intervals += o.intervals
	s.barriers += o.barriers
	s.lockAcquires += o.lockAcquires
	s.readNoticeBytes += o.readNoticeBytes
	s.diffWords += o.diffWords
	s.msgs += o.msgs
	s.bytes += o.bytes
	s.det.PairComparisons += o.det.PairComparisons
	s.det.CheckEntries += o.det.CheckEntries
	s.det.BitmapsCompared += o.det.BitmapsCompared
	s.reports += o.reports
	s.distinct += o.distinct
	s.ckpt.Count += o.ckpt.Count
	s.ckpt.EncodeNS += o.ckpt.EncodeNS
	s.ckpt.Bytes += o.ckpt.Bytes
	s.ckpt.LogicalBytes += o.ckpt.LogicalBytes
}

// emit records the iteration's layer counts.
func (it *dsmIter) emit(t *tally) {
	s := it.sum
	t.add("dsm.page_faults", float64(s.faults))
	t.add("dsm.intervals", float64(s.intervals))
	t.add("dsm.barriers", float64(s.barriers))
	t.add("dsm.lock_acquires", float64(s.lockAcquires))
	t.add("dsm.read_notice_bytes", float64(s.readNoticeBytes))
	t.add("dsm.diff_words", float64(s.diffWords))
	t.add("simnet.msgs", float64(s.msgs))
	t.add("simnet.bytes", float64(s.bytes))
	t.add("race.comparisons", float64(s.det.PairComparisons))
	t.add("race.check_entries", float64(s.det.CheckEntries))
	t.add("race.bitmaps_compared", float64(s.det.BitmapsCompared))
	t.add("race.reports", float64(s.reports))
	t.add("race.distinct_races", float64(s.distinct))
	if s.ckpt.Count > 0 {
		t.add("dsm.ckpt_encode_us", float64(s.ckpt.EncodeNS)/float64(s.ckpt.Count)/1e3)
		t.add("dsm.ckpt_stored_ratio", float64(s.ckpt.Bytes)/float64(s.ckpt.LogicalBytes))
	}
	if len(it.slowdown) > 0 {
		t.add("costmodel.virtual_slowdown", geomean(it.slowdown))
	}
}

// appRun is one program run of an iteration of dsm-barrier or dsm-sync.
type appRun struct {
	key string // golden key suffix and span label, e.g. "SOR/on"
	cfg harness.RunConfig
	// exactVirtual says the run's virtual time and traffic repeat exactly
	// (barrier-only programs); otherwise they follow real lock-arrival
	// order and are held to a band.
	exactVirtual bool
	// base names the detection-off run of the same program, for the
	// virtual slowdown; empty on runs that have none or are one.
	base string
}

// appWorkload runs a fixed list of application runs per iteration through
// harness.Run: dsm-barrier and dsm-sync.
type appWorkload struct {
	name string
	runs []appRun
}

func (w *appWorkload) close() {}

// observeApp turns a run's counters into golden terms.
func observeApp(r appRun, o dsmObs, racy []string) observation {
	ob := observation{
		exact: map[string]int64{
			"accesses":  o.accesses,
			"intervals": o.intervals,
			"barriers":  o.barriers,
			"reports":   int64(o.reports),
		},
		band: map[string]int64{},
		racy: racy,
	}
	traffic := ob.band
	if r.exactVirtual {
		traffic = ob.exact
	}
	traffic["virtual_ns"] = o.virtualNS
	traffic["messages"] = o.msgs
	traffic["bytes"] = o.bytes
	return ob
}

// iteration runs every run of the list once and returns the per-run
// observations by key; check holds each to its golden. Failures land in t.
// Wall times are the program's own (Result.WallNS: sys.Run only); the
// harness share is reported apart.
func (w *appWorkload) iteration(e *env, t *tally, i int, traced, check bool) map[string]dsmObs {
	tr := e.spans(traced)
	root := tr.begin(w.name+".iteration", -1, i, 0)
	defer tr.end(root)
	out := map[string]dsmObs{}
	for _, r := range w.runs {
		cfg := r.cfg
		if traced {
			cfg.Telemetry = &telemetry.Config{}
		}
		t.attempted++
		e.cal.sample()
		sp := tr.begin("harness.Run "+r.key, root, i, 0)
		t0 := time.Now()
		res, err := harness.Run(cfg)
		total := time.Since(t0)
		tr.end(sp)
		if err != nil {
			t.fail("%s/%s: %v", w.name, r.key, err)
			continue
		}
		o := observeSystem(res.Sys, res.WallNS)
		out[r.key] = o
		t.add("harness.overhead_ms", float64(total.Nanoseconds()-res.WallNS)/1e6)
		if check {
			if bad := e.golden.observe(w.name+"/"+r.key, false, observeApp(r, o, res.RacyVariables())); len(bad) > 0 {
				t.fail("%s", bad[0])
			}
		}
	}
	return out
}

// record folds one iteration into the tally: per-op wall of the detection-on
// and detection-off runs, and the layer counts.
func (w *appWorkload) record(t *tally, obs map[string]dsmObs, traced bool) {
	if len(obs) != len(w.runs) {
		return // a run failed; the iteration is already counted as such
	}
	var wallOn, accOn, wallOff, accOff int64
	it := &dsmIter{}
	for _, r := range w.runs {
		o := obs[r.key]
		it.addRun(o)
		if r.cfg.Detect {
			wallOn += o.wallNS
			accOn += o.accesses
		} else {
			wallOff += o.wallNS
			accOff += o.accesses
		}
		if r.base != "" {
			it.slowdown = append(it.slowdown, float64(o.virtualNS)/float64(obs[r.base].virtualNS))
		}
		if w.name == wBarrier && r.cfg.Detect {
			t.add("costmodel.virtual_ms."+r.cfg.App, float64(o.virtualNS)/1e6)
		}
	}
	t.ops += accOn + accOff
	if traced {
		t.opNSTraced = append(t.opNSTraced, float64(wallOn)/float64(accOn))
	} else {
		t.opNS = append(t.opNS, float64(wallOn)/float64(accOn))
		t.opNSBase = append(t.opNSBase, float64(wallOff)/float64(accOff))
	}
	it.emit(t)
}

func (w *appWorkload) run(e *env, t *tally, more func() bool) {
	iterate(e, t, more, func(i int, traced bool) {
		w.record(t, w.iteration(e, t, i, traced, !e.tiny), traced)
	})
}

// setupApps builds the workload and runs its warm-up iteration.
func setupApps(e *env, name string, runs []appRun) (instance, error) {
	w := &appWorkload{name: name, runs: runs}
	return w, warmUp(func(t *tally) { w.iteration(e, t, -1, false, false) })
}

// scaleFor shrinks an application's input for tiny runs.
func scaleFor(e *env, full, tiny float64) float64 {
	if e.tiny {
		return tiny
	}
	return full
}

var barrierWorkload = workload{
	name: wBarrier,
	why:  "access-bound: SOR and FFT make millions of instrumented accesses against ~1.8k messages and an empty check list, so host time is Proc.Read/Write, the interval builder and checkpoint encode",
	op:   "shared access",
	setup: func(e *env) (instance, error) {
		sor := harness.RunConfig{App: "SOR", Scale: scaleFor(e, 1, 0.1), Procs: 4}
		fft := harness.RunConfig{App: "FFT", Scale: scaleFor(e, 1, 0.1), Procs: 4}
		on := func(c harness.RunConfig) harness.RunConfig { c.Detect = true; return c }
		return setupApps(e, wBarrier, []appRun{
			{key: "SOR/on", cfg: on(sor), exactVirtual: true, base: "SOR/off"},
			{key: "SOR/off", cfg: sor, exactVirtual: true},
			{key: "FFT/on", cfg: on(fft), exactVirtual: true, base: "FFT/off"},
			{key: "FFT/off", cfg: fft, exactVirtual: true},
		})
	},
}

var syncWorkload = workload{
	name: wSync,
	why:  "message- and sync-bound: Water's lock chains, ~3k messages, twins and diffs and the serial barrier check dominate; raw access cost is a tenth of the total, so access-path work must not move it",
	op:   "shared access",
	setup: func(e *env) (instance, error) {
		water := harness.RunConfig{App: "Water", Scale: scaleFor(e, 1, 0.3), Procs: 4}
		on := func(c harness.RunConfig) harness.RunConfig { c.Detect = true; return c }
		mw := on(water)
		mw.Protocol = dsm.MultiWriter
		return setupApps(e, wSync, []appRun{
			{key: "Water/sw/on", cfg: on(water), base: "Water/sw/off"},
			{key: "Water/sw/off", cfg: water},
			{key: "Water/mw/on", cfg: mw},
		})
	},
}

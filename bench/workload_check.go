package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"lrcrace"
	"lrcrace/internal/telemetry"
)

// checkParams sizes the dsm-check program: a false-sharing pattern in which
// every interval of an epoch is concurrent with every interval of the other
// processes and overlaps them on whole pages but (almost) never on a word,
// so the barrier-time check-list build, bitmap round and comparison are
// most of the work.
type checkParams struct {
	procs, epochs int
	intervals     int // private-lock intervals per process per epoch
	pages         int
	pagesPerIv    int // pages one interval writes
	races         int // planted word-level races
}

const (
	checkPageSize  = 512
	checkPageWords = checkPageSize / 8
)

var (
	checkFull = checkParams{procs: 8, epochs: 16, intervals: 8, pages: 32, pagesPerIv: 3, races: 4}
	checkTiny = checkParams{procs: 4, epochs: 2, intervals: 2, pages: 8, pagesPerIv: 2, races: 1}
)

// plantedRace makes two processes write the same word in one epoch.
type plantedRace struct{ epoch, a, b int }

// checkProgram is the generated input: which pages each interval writes,
// and where the planted races are. It is a function of the seed alone.
type checkProgram struct {
	par checkParams
	// pattern[epoch][proc][interval] lists the pages written.
	pattern [][][][]int
	planted []plantedRace
}

func genCheckProgram(par checkParams, seed int64) *checkProgram {
	rng := rand.New(rand.NewSource(seed))
	pr := &checkProgram{par: par}
	pr.pattern = make([][][][]int, par.epochs)
	for ep := range pr.pattern {
		pr.pattern[ep] = make([][][]int, par.procs)
		for p := range pr.pattern[ep] {
			pr.pattern[ep][p] = make([][]int, par.intervals)
			for k := range pr.pattern[ep][p] {
				pr.pattern[ep][p][k] = rng.Perm(par.pages)[:par.pagesPerIv]
			}
		}
	}
	for j := 0; j < par.races; j++ {
		a := rng.Intn(par.procs)
		b := (a + 1 + rng.Intn(par.procs-1)) % par.procs
		pr.planted = append(pr.planted, plantedRace{epoch: rng.Intn(par.epochs), a: a, b: b})
	}
	return pr
}

// pipeline is one of the three barrier/check implementations.
type pipeline struct {
	name string
	set  func(*lrcrace.Config)
}

var pipelines = []pipeline{
	{"flat", func(*lrcrace.Config) {}},
	{"sharded", func(c *lrcrace.Config) { c.ShardedCheck = true }},
	{"tree", func(c *lrcrace.Config) { c.BarrierTree = 2 }},
}

// checkRun is one finished run of the program.
type checkRun struct {
	obs    dsmObs
	epochs int64
	races  []string // canonical report strings, sorted
	racy   []string // racy symbols
	waitUS float64  // median virtual barrier wait; traced runs only
}

// runOnce runs the program under one configuration on the public API.
func (pr *checkProgram) runOnce(set func(*lrcrace.Config), detect bool, rec *telemetry.Recorder) (*checkRun, error) {
	par := pr.par
	cfg := lrcrace.Config{
		NumProcs:   par.procs,
		SharedSize: (par.pages + 1) * checkPageSize,
		PageSize:   checkPageSize,
		Protocol:   lrcrace.MultiWriter,
		Detect:     detect,
		Recorder:   rec,
	}
	if detect {
		set(&cfg)
	}
	sys, err := lrcrace.New(cfg)
	if err != nil {
		return nil, err
	}
	grid, err := sys.AllocWords("grid", par.pages*checkPageWords)
	if err != nil {
		return nil, err
	}
	racy := make([]lrcrace.Addr, len(pr.planted))
	for j := range racy {
		if racy[j], err = sys.AllocWords(fmt.Sprintf("racy%d", j), 1); err != nil {
			return nil, err
		}
	}
	slots := checkPageWords / par.procs // words of each page that belong to one process
	worker := func(p *lrcrace.Proc) {
		me := p.ID()
		for ep := 0; ep < par.epochs; ep++ {
			for k, pages := range pr.pattern[ep][me] {
				p.Lock(me) // a lock nobody else takes: opens an interval, orders nothing
				for _, pg := range pages {
					for s := 0; s < slots; s += 2 {
						word := pg*checkPageWords + s*par.procs + me // interleaved: never another process's word
						p.Write(grid+lrcrace.Addr(word*8), uint64(ep*par.intervals+k))
					}
				}
				if k == 0 {
					for j, r := range pr.planted {
						if r.epoch == ep && (r.a == me || r.b == me) {
							p.Write(racy[j], uint64(me))
						}
					}
				}
				p.Unlock(me)
			}
			p.Barrier()
		}
	}
	t0 := time.Now()
	if err := sys.Run(worker); err != nil {
		return nil, err
	}
	wall := time.Since(t0).Nanoseconds()

	run := &checkRun{obs: observeSystem(sys, wall), epochs: sys.Procs()[0].Stats().Barriers}
	seen := map[string]bool{}
	for _, r := range sys.Races() {
		run.races = append(run.races, r.String())
		if sym, ok := sys.SymbolAt(r.Addr); ok && !seen[sym.Name] {
			seen[sym.Name] = true
			run.racy = append(run.racy, sym.Name)
		}
	}
	sort.Strings(run.races)
	sort.Strings(run.racy)
	if rec != nil {
		var waits []float64
		for _, ev := range rec.Events() {
			if ev.Kind == telemetry.KBarrierDepart {
				waits = append(waits, float64(ev.C)/1e3)
			}
		}
		run.waitUS = percentile(waits, 50)
	}
	return run, nil
}

type checkWorkloadInst struct {
	prog *checkProgram
}

func (w *checkWorkloadInst) close() {}

func observeCheck(r *checkRun) observation {
	return observation{
		exact: map[string]int64{
			"accesses":      r.obs.accesses,
			"intervals":     r.obs.intervals,
			"epochs":        r.epochs,
			"reports":       int64(r.obs.reports),
			"check_entries": int64(r.obs.det.CheckEntries),
			"comparisons":   int64(r.obs.det.PairComparisons),
			"bitmaps":       int64(r.obs.det.BitmapsCompared),
			// Private locks order nothing across processes, so unlike
			// Water's the virtual time and traffic repeat exactly.
			"virtual_ns": r.obs.virtualNS,
			"messages":   r.obs.msgs,
			"bytes":      r.obs.bytes,
		},
		racy: r.racy,
	}
}

// iteration runs the program under the three pipelines and once with
// detection off, and asserts the three race sets are identical.
func (w *checkWorkloadInst) iteration(e *env, t *tally, i int, traced, check bool) {
	tr := e.spans(traced)
	root := tr.begin(wCheck+".iteration", -1, i, 0)
	defer tr.end(root)

	it := &dsmIter{}
	var wallOn, epochsOn int64
	var ref *checkRun
	ok := true
	one := func(name string, set func(*lrcrace.Config), detect bool) *checkRun {
		var rec *telemetry.Recorder
		if traced {
			rec = telemetry.New(telemetry.Config{Procs: w.prog.par.procs, Cap: -1}) // unbounded: the wait percentile reads raw events
		}
		t.attempted++
		e.cal.sample()
		sp := tr.begin("System.Run "+name, root, i, 0)
		run, err := w.prog.runOnce(set, detect, rec)
		tr.end(sp)
		if err != nil {
			t.fail("%s/%s: %v", wCheck, name, err)
			ok = false
			return nil
		}
		it.addRun(run.obs)
		if check {
			key := fmt.Sprintf("%s/seed=%d/%s", wCheck, e.seed, name)
			if bad := e.golden.observe(key, true, observeCheck(run)); len(bad) > 0 {
				t.fail("%s", bad[0])
			}
		}
		return run
	}
	for _, pl := range pipelines {
		run := one(pl.name, pl.set, true)
		if run == nil {
			continue
		}
		wallOn += run.obs.wallNS
		epochsOn += run.epochs
		t.add("dsm.epoch_us."+pl.name, float64(run.obs.wallNS)/float64(run.epochs)/1e3)
		if traced {
			t.add("dsm.barrier_wait_virtual_p50_us."+pl.name, run.waitUS)
		}
		if ref == nil {
			ref = run
		} else if !sameStrings(ref.races, run.races) {
			t.fail("%s: the %s pipeline reported %d races, flat %d: the race sets differ",
				wCheck, pl.name, len(run.races), len(ref.races))
		}
	}
	off := one("off", nil, false)
	if !ok {
		return
	}
	it.slowdown = []float64{float64(ref.obs.virtualNS) / float64(off.obs.virtualNS)}
	it.emit(t)
	t.ops += epochsOn + off.epochs
	if traced {
		t.opNSTraced = append(t.opNSTraced, float64(wallOn)/float64(epochsOn))
	} else {
		t.opNS = append(t.opNS, float64(wallOn)/float64(epochsOn))
		t.opNSBase = append(t.opNSBase, float64(off.obs.wallNS)/float64(off.epochs))
	}
}

func (w *checkWorkloadInst) run(e *env, t *tally, more func() bool) {
	iterate(e, t, more, func(i int, traced bool) { w.iteration(e, t, i, traced, !e.tiny) })
}

var checkWorkload = workload{
	name: wCheck,
	why:  "detector-bound: 8 procs x 8 concurrent private-lock intervals per epoch sharing pages but not words, run under all three barrier pipelines (flat, sharded, tree), whose race sets must agree",
	op:   "barrier epoch",
	setup: func(e *env) (instance, error) {
		par := checkFull
		if e.tiny {
			par = checkTiny
		}
		w := &checkWorkloadInst{prog: genCheckProgram(par, e.seed)}
		return w, warmUp(func(t *tally) { w.iteration(e, t, -1, false, false) })
	},
}

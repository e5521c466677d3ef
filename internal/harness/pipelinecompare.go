package harness

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"

	"lrcrace/internal/dsm"
	"lrcrace/internal/mem"
	"lrcrace/internal/race"
	"lrcrace/internal/telemetry"
)

// This file is the one pipeline-comparison experiment: a candidate barrier
// pipeline — the sharded check (dsm.Config.ShardedCheck), the combining
// tree (dsm.Config.BarrierTree) — measured against the paper's flat,
// single-owner barrier on the same workload. The quantity compared is the
// dsm_barrier_wait_ns series — virtual time from a process's barrier
// arrival to its departure, one sample per process per epoch — extracted
// from the telemetry recorder's raw events so the percentiles are exact
// rather than read off histogram buckets. Under the baseline every
// arrival, the whole check-list build and every bitmap comparison
// serialize at the master inside that wait; sharding spreads the
// comparison across the shard owners, the tree spreads the arrivals and
// the build across ⌈log_k N⌉ hops.
//
// Every comparison on a deterministic workload doubles as a correctness
// gate: the candidate must report the baseline's races and leave the
// detector in identical persistent state, or the experiment returns an
// error instead of a table.

// pipelineRow is one workload × process-count measurement of a candidate
// barrier pipeline against the flat, single-owner baseline.
type pipelineRow struct {
	Workload string
	Procs    int
	// Entries is the check-list entry total the detector built over the
	// baseline run — identical in the candidate run on gated workloads
	// (verified, not assumed).
	Entries int64
	// Nearest-rank percentiles of dsm_barrier_wait_ns, in virtual ns.
	BaseP50, BaseP99 int64
	CandP50, CandP99 int64
}

// waitRatio is the baseline/candidate ratio of two barrier waits.
func waitRatio(base, cand int64) float64 {
	if cand == 0 {
		return 0
	}
	return float64(base) / float64(cand)
}

// barrierWaitNS extracts every barrier-departure wait (KBarrierDepart arg C)
// retained by the recorder — the raw samples behind dsm_barrier_wait_ns.
func barrierWaitNS(rec *telemetry.Recorder) []int64 {
	var out []int64
	for _, e := range rec.Events() {
		if e.Kind == telemetry.KBarrierDepart {
			out = append(out, e.C)
		}
	}
	return out
}

// pctNS is the nearest-rank q-th percentile (q in (0,1]) of samples.
func pctNS(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// pipelineOutcome carries one run's latency samples plus everything the
// identity gate compares (races and det; only gated workloads fill them).
type pipelineOutcome struct {
	waits   []int64
	entries int64
	races   []race.Report
	det     race.State
}

// syntheticProgram is a synthetic MultiWriter barrier workload as data: its
// segment shape at a process count and the body of one epoch.
type syntheticProgram struct {
	pageSize, epochs int
	// pages sizes the segment, rejecting process counts the layout cannot
	// hold.
	pages func(procs int) (int, error)
	// epoch is process p's work in epoch e, before the barrier; base is the
	// first word of the segment.
	epoch func(p *dsm.Proc, base mem.Addr, procs, e int)
}

// falseSharing is the all-pairs false-sharing workload of the sharded-check
// comparison: every process writes its own word-disjoint slice of every
// page each epoch, so the check list carries pages × C(procs,2) entries per
// barrier while the bitmap comparisons find no word overlap — the
// check-bound regime where distributing the comparison should pay, without
// the race-report broadcast (kept rare in practice by §6.4 first-race
// filtering) drowning the signal.
var falseSharing = func() syntheticProgram {
	const (
		pageSize = 512
		pages    = 64
		hotWords = 8 // words per page written by each process (disjoint slices)
	)
	return syntheticProgram{
		pageSize: pageSize,
		epochs:   6,
		pages: func(procs int) (int, error) {
			if procs*hotWords > pageSize/8 {
				return 0, fmt.Errorf("harness: %d procs × %d words exceeds the %d-word page", procs, hotWords, pageSize/8)
			}
			return pages, nil
		},
		epoch: func(p *dsm.Proc, base mem.Addr, _, _ int) {
			for pg := 0; pg < pages; pg++ {
				for w := 0; w < hotWords; w++ {
					word := pg*(pageSize/8) + p.ID()*hotWords + w
					p.Write(base+mem.Addr(word*8), uint64(word))
				}
			}
		},
	}
}()

// lockChain is the workload of the combining-tree comparison: its barrier
// wait is dominated by the check-list *build* — the work the tree actually
// distributes — rather than by payload bytes, which no topology can shrink
// (every process must receive every record either way). Each process runs
// cycles lock/unlock pairs per epoch on a private lock, splitting the epoch
// into 2·cycles concurrent intervals; pair-comparison work at the master
// grows with (intervals·procs)² while the record payload grows only
// linearly, so the serialized build is the dominant term at wide process
// counts. Every interval writes a private chunk of pages homed at the
// writer (pg ≡ p mod procs: diffs and faults are loopback, and no
// cross-process page sharing means a near-empty check list), plus one
// deliberate write-write overlap on a shared page so the race sets the
// identity gate diffs are non-empty.
var lockChain = func() syntheticProgram {
	const (
		pageSize = 256 // 32 words
		cycles   = 4   // lock/unlock pairs per epoch -> 2·cycles intervals
		chunk    = 32  // private pages written per interval
	)
	return syntheticProgram{
		pageSize: pageSize,
		epochs:   3,
		pages: func(procs int) (int, error) {
			if procs < 2 || procs > 128 {
				return 0, fmt.Errorf("harness: %d procs outside the synthetic's 2..128 range", procs)
			}
			// Page 0 is the shared race page; process p's private page j
			// lives at (1+j)·procs + p, so its home (pg mod procs) is p.
			return (1 + 2*cycles*chunk) * procs, nil
		},
		epoch: func(p *dsm.Proc, base mem.Addr, procs, e int) {
			private := func(j int) mem.Addr {
				return base + mem.Addr((1+j)*procs+p.ID())*pageSize
			}
			slot := 0
			for c := 0; c < cycles; c++ {
				p.Lock(p.ID())
				for i := 0; i < chunk; i++ {
					p.Write(private(slot), uint64(slot))
					slot++
				}
				p.Unlock(p.ID())
				for i := 0; i < chunk; i++ {
					p.Write(private(slot), uint64(slot))
					slot++
				}
			}
			if e == 0 && p.ID() < 2 {
				// The deliberate race: procs 0 and 1 overlap on one word
				// of the shared page.
				p.Write(base+8, uint64(p.ID()))
			}
		},
	}
}()

// run drives the program on procs processes under the flat single-owner
// barrier with candidate applied on top (baseline: a no-op).
func (prog syntheticProgram) run(procs int, candidate func(*dsm.Config)) (pipelineOutcome, error) {
	var out pipelineOutcome
	pages, err := prog.pages(procs)
	if err != nil {
		return out, err
	}
	rec := telemetry.New(telemetry.Config{Procs: procs, Cap: -1})
	cfg := dsm.Config{
		NumProcs:   procs,
		SharedSize: pages * prog.pageSize,
		PageSize:   prog.pageSize,
		Protocol:   dsm.MultiWriter,
		Detect:     true,
		Recorder:   rec,
	}
	candidate(&cfg)
	s, err := dsm.New(cfg)
	if err != nil {
		return out, err
	}
	defer s.Close()
	base, err := s.AllocWords("grid", pages*prog.pageSize/8)
	if err != nil {
		return out, err
	}
	err = s.Run(func(p *dsm.Proc) {
		for e := 0; e < prog.epochs; e++ {
			prog.epoch(p, base, procs, e)
			p.Barrier()
		}
	})
	if err != nil {
		return out, err
	}
	return pipelineOutcome{
		waits:   barrierWaitNS(rec),
		entries: int64(s.DetectorStats().CheckEntries),
		races:   s.Races(),
		det:     s.DetectorState(),
	}, nil
}

// runApp runs one benchmark application with detection on under the
// candidate's topology.
func (s *Suite) runApp(app string, procs int, candidate func(*dsm.Config)) (pipelineOutcome, error) {
	scale := s.Scale * PaperScaleFactors[app]
	if scale == 0 {
		scale = s.Scale
	}
	cfg := RunConfig{App: app, Scale: scale, Procs: procs, Detect: true, Telemetry: &telemetry.Config{Cap: -1}}
	candidate(&cfg.DSM)
	res, err := Run(cfg)
	if err != nil {
		return pipelineOutcome{}, err
	}
	return pipelineOutcome{waits: barrierWaitNS(res.Telemetry), entries: int64(res.Det.CheckEntries)}, nil
}

// pipelineWorkload is one row source of a comparison.
type pipelineWorkload struct {
	name string
	run  func(procs int, candidate func(*dsm.Config)) (pipelineOutcome, error)
	// gated workloads are deterministic, so a candidate whose races or
	// detector state differ from the baseline's is a bug, not schedule
	// drift. (TSP's lock-grant order drifts between two independent runs.)
	gated bool
}

// pipelineExperiment is one candidate pipeline against the baseline over
// workloads × process counts, with the table's wording.
type pipelineExperiment struct {
	title      string // table heading, before the units
	base, cand string // column labels of the two sides
	candidate  func(*dsm.Config)
	workloads  []pipelineWorkload
	procCounts []int
}

// rows measures every process count × workload, baseline then candidate,
// applying the identity gate where the workload allows it.
func (x pipelineExperiment) rows() ([]pipelineRow, error) {
	var rows []pipelineRow
	for _, pc := range x.procCounts {
		for _, wl := range x.workloads {
			base, err := wl.run(pc, func(*dsm.Config) {})
			if err != nil {
				return nil, fmt.Errorf("harness: %s %s at %d procs: %w", wl.name, x.base, pc, err)
			}
			cand, err := wl.run(pc, x.candidate)
			if err != nil {
				return nil, fmt.Errorf("harness: %s %s at %d procs: %w", wl.name, x.cand, pc, err)
			}
			if wl.gated {
				if !reflect.DeepEqual(base.races, cand.races) {
					return nil, fmt.Errorf("harness: %s %s run at %d procs diverged from the %s oracle's races:\n%s: %v\n%s: %v",
						wl.name, x.cand, pc, x.base, x.base, base.races, x.cand, cand.races)
				}
				if !reflect.DeepEqual(base.det, cand.det) {
					return nil, fmt.Errorf("harness: %s %s run at %d procs diverged from the %s oracle's detector state",
						wl.name, x.cand, pc, x.base)
				}
			}
			rows = append(rows, pipelineRow{
				Workload: wl.name, Procs: pc, Entries: base.entries,
				BaseP50: pctNS(base.waits, 0.50), BaseP99: pctNS(base.waits, 0.99),
				CandP50: pctNS(cand.waits, 0.50), CandP99: pctNS(cand.waits, 0.99),
			})
		}
	}
	return rows, nil
}

// table prints the comparison (EXPERIMENTS.md's sharded-check and
// combining-tree sections, docs/SCALING.md's table).
func (x pipelineExperiment) table(w io.Writer) error {
	rows, err := x.rows()
	if err != nil {
		return err
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	fmt.Fprintf(w, "%s (dsm_barrier_wait_ns, exact percentiles, virtual µs)\n", x.title)
	fmt.Fprintf(w, "%-12s %5s %9s %12s %12s %12s %12s %8s %8s\n",
		"Workload", "Procs", "Entries",
		x.base+" p50", x.base+" p99", x.cand+" p50", x.cand+" p99", "p50", "p99")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %5d %9d %12.0f %12.0f %12.0f %12.0f %7.2fx %7.2fx\n",
			r.Workload, r.Procs, r.Entries,
			us(r.BaseP50), us(r.BaseP99), us(r.CandP50), us(r.CandP99),
			waitRatio(r.BaseP50, r.CandP50), waitRatio(r.BaseP99, r.CandP99))
	}
	return nil
}

// shardExperiment is the serial-versus-sharded comparison on the
// false-sharing synthetic and on TSP, at each process count (nil → 4, 8).
func (s *Suite) shardExperiment(procCounts []int) pipelineExperiment {
	if len(procCounts) == 0 {
		procCounts = []int{4, 8}
	}
	return pipelineExperiment{
		title: "Serial vs. sharded barrier race check", base: "serial", cand: "shard",
		candidate: func(c *dsm.Config) { c.ShardedCheck = true },
		workloads: []pipelineWorkload{
			{name: "MultiWriter", run: falseSharing.run, gated: true},
			{name: "TSP", run: func(procs int, candidate func(*dsm.Config)) (pipelineOutcome, error) {
				return s.runApp("TSP", procs, candidate)
			}},
		},
		procCounts: procCounts,
	}
}

// treeExperiment is the flat-versus-tree comparison on the lock-chain
// synthetic at each process count (nil → 8, 16, 32, 64; arity 0 → 2).
func (s *Suite) treeExperiment(procCounts []int, arity int) pipelineExperiment {
	if len(procCounts) == 0 {
		procCounts = []int{8, 16, 32, 64}
	}
	if arity == 0 {
		arity = 2
	}
	return pipelineExperiment{
		title: fmt.Sprintf("Flat vs. combining-tree barrier, arity %d", arity), base: "flat", cand: "tree",
		candidate:  func(c *dsm.Config) { c.BarrierTree = arity },
		workloads:  []pipelineWorkload{{name: "LockChain", run: lockChain.run, gated: true}},
		procCounts: procCounts,
	}
}

// ShardCompareTable prints the serial-versus-sharded comparison; a sharded
// MultiWriter run that diverges from the serial oracle is an error.
func (s *Suite) ShardCompareTable(w io.Writer, procCounts []int) error {
	return s.shardExperiment(procCounts).table(w)
}

// TreeCompareTable prints the flat-versus-tree comparison; a tree run that
// diverges from the flat oracle is an error.
func (s *Suite) TreeCompareTable(w io.Writer, procCounts []int, arity int) error {
	return s.treeExperiment(procCounts, arity).table(w)
}

package dsm

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lrcrace/internal/hbdet"
	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/race"
	"lrcrace/internal/replay"
	"lrcrace/internal/simnet"
)

// Cross-validation of the barrier pipeline. Config.BarrierTree and
// Config.ShardedCheck select topologies of one implementation (tree.go,
// shard.go), so no configuration can serve as an independent oracle for
// another. The oracles are therefore outside internal/dsm:
//
//   - hbdet, a classic vector-clock happens-before detector attached to the
//     same execution through the trace hook, for the set of racy addresses;
//   - the flat-serial outcome of two fixed programs (pinnedPrograms),
//     recorded as literals at the last commit where the flat barrier and
//     the serial check were separate code;
//   - race.Detector.BuildCheckList / Compare, the pure-function reference
//     the race package's property tests hold the partial build and the
//     shard compare against.
//
// On top of that every topology must agree with the star on the same
// program: identical report lists and identical detector state (race.State
// feeds checkpoints, so any divergence would also poison recovery).

// pipeline is one barrier topology under test.
type pipeline struct {
	name    string
	tree    int
	sharded bool
}

var (
	flatPipe    = pipeline{"flat", 0, false}
	shardedPipe = pipeline{"sharded", 0, true}
	tree2Pipe   = pipeline{"tree-2", 2, false}
	tree3Pipe   = pipeline{"tree-3", 3, false}
	tree4Pipe   = pipeline{"tree-4", 4, false}
	tree2Shard  = pipeline{"tree-2+sharded", 2, true}

	// pipelines is every row of the suite; flat comes first, the rest are
	// compared against it.
	pipelines = []pipeline{flatPipe, shardedPipe, tree2Pipe, tree3Pipe, tree4Pipe, tree2Shard}
)

// on returns c with the pipeline's topology selected.
func (pl pipeline) on(c Config) Config {
	c.BarrierTree, c.ShardedCheck = pl.tree, pl.sharded
	return c
}

// newSys builds newSys's small detecting system under the pipeline.
func (pl pipeline) newSys(t *testing.T, nproc int, proto ProtocolKind) *System {
	t.Helper()
	s, err := New(pl.on(smallConfig(nproc, proto, true)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// outcome is what two runs of one program must agree on.
type outcome struct {
	races []race.Report
	det   race.State
}

func outcomeOf(s *System) outcome { return outcome{races: s.Races(), det: s.DetectorState()} }

func (o outcome) mustEqual(t *testing.T, want outcome, what string) {
	t.Helper()
	if !reflect.DeepEqual(want.races, o.races) {
		t.Fatalf("%s: reports differ:\nflat: %v\ngot:  %v", what, want.races, o.races)
	}
	if !reflect.DeepEqual(want.det, o.det) {
		t.Fatalf("%s: detector state differs:\nflat: %+v\ngot:  %+v", what, want.det, o.det)
	}
}

// --- the program set ---

// paperScenarios are the channel-gated (fully deterministic) renderings of
// the paper's Figure 2 and Figure 5.
var paperScenarios = []struct {
	name  string
	nproc int
	run   func(t *testing.T, s *System)
}{
	{"figure2-same-word", 2, func(t *testing.T, s *System) { runFigure2(t, s, 8, 8) }},
	{"figure2-false-sharing-plus-race", 2, func(t *testing.T, s *System) { runFigure2(t, s, 0, 0) }},
	{"figure5-queue", 3, func(t *testing.T, s *System) { runFigure5(t, s) }},
}

// runLockChain is a deterministic six-process, two-epoch program: a token
// passed over channels hands lock 0 from p0 to p5 in order (a fully ordered
// chain of lock intervals incrementing a counter), p5 reads the counter
// unsynchronized before its turn (a read-write race with every other
// process's locked write), every process writes its own word of a shared
// page (false sharing), and after its unlock one pair of processes per
// epoch writes the same word (a write-write race). Six processes make the
// arity-2 tree three levels deep and give the arity-4 tree an interior
// node below the root.
func runLockChain(t *testing.T, s *System) {
	t.Helper()
	const n, epochs = 6, 2
	counter, _ := s.AllocWords("counter", 1)
	slots, _ := s.AllocWords("slots", n)
	after, _ := s.AllocWords("after", 3)
	var tok [epochs][n + 1]chan struct{}
	for e := range tok {
		for i := range tok[e] {
			tok[e][i] = make(chan struct{})
		}
		close(tok[e][0])
	}
	err := s.Run(func(p *Proc) {
		id := p.ID()
		for e := 0; e < epochs; e++ {
			p.Write(slots+mem.Addr(id*8), uint64(e))
			if id == n-1 {
				p.Read(counter)
			}
			<-tok[e][id]
			p.Lock(0)
			p.Write(counter, p.Read(counter)+1)
			p.Unlock(0)
			close(tok[e][id+1])
			if id%3 == e {
				p.Write(after+mem.Addr(e*8), uint64(id))
			}
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// pinnedPrograms carry the flat-serial reference as literals: every report
// of the run, in order, and the detector's counters, recorded at commit
// e6d0994 (PR 13) — the last one where Config{BarrierTree: 0, ShardedCheck:
// false} ran handleBarrierArrive + Detector.BuildCheckList + Detector.Compare
// rather than the star/one-owner case of the tree and shard code. Both
// protocols produced these same values there.
var pinnedPrograms = []struct {
	name  string
	nproc int
	run   func(t *testing.T, s *System)
	races []string
	stats race.Stats
}{
	{
		name: "figure5-queue", nproc: 3,
		run: func(t *testing.T, s *System) { runFigure5(t, s) },
		races: []string{
			"read-write race at addr 0x0 (page 0 word 0, epoch 0): write in σ0^1 ~ read in σ1^1",
			"read-write race at addr 0x8 (page 0 word 1, epoch 0): write in σ0^1 ~ read in σ1^1",
			"read-write race at addr 0x110 (page 0 word 34, epoch 0): write in σ0^1 ~ read in σ1^1",
			"write-write race at addr 0x110 (page 0 word 34, epoch 0): write in σ0^1 ~ write in σ2^1",
			"read-write race at addr 0x110 (page 0 word 34, epoch 0): read in σ1^1 ~ write in σ2^1",
		},
		stats: race.Stats{Epochs: 1, IntervalsTotal: 6, PairComparisons: 12, ConcurrentPairs: 12,
			OverlappingPairs: 3, IntervalsInvolved: 3, CheckEntries: 3, NoticesScanned: 12,
			BitmapsCompared: 6, WordOverlaps: 5},
	},
	{
		name: "lock-chain", nproc: 6,
		run: runLockChain,
		races: []string{
			"read-write race at addr 0x0 (page 0 word 0, epoch 0): write in σ0^2 ~ read in σ5^1",
			"write-write race at addr 0x38 (page 0 word 7, epoch 0): write in σ0^3 ~ write in σ3^3",
			"read-write race at addr 0x0 (page 0 word 0, epoch 0): write in σ1^2 ~ read in σ5^1",
			"read-write race at addr 0x0 (page 0 word 0, epoch 0): write in σ2^2 ~ read in σ5^1",
			"read-write race at addr 0x0 (page 0 word 0, epoch 0): write in σ3^2 ~ read in σ5^1",
			"read-write race at addr 0x0 (page 0 word 0, epoch 0): write in σ4^2 ~ read in σ5^1",
			"read-write race at addr 0x0 (page 0 word 0, epoch 1): write in σ0^6 ~ read in σ5^5",
			"read-write race at addr 0x0 (page 0 word 0, epoch 1): write in σ1^6 ~ read in σ5^5",
			"write-write race at addr 0x40 (page 0 word 8, epoch 1): write in σ1^7 ~ write in σ4^7",
			"read-write race at addr 0x0 (page 0 word 0, epoch 1): write in σ2^6 ~ read in σ5^5",
			"read-write race at addr 0x0 (page 0 word 0, epoch 1): write in σ3^6 ~ read in σ5^5",
			"read-write race at addr 0x0 (page 0 word 0, epoch 1): write in σ4^6 ~ read in σ5^5",
		},
		stats: race.Stats{Epochs: 3, IntervalsTotal: 60, PairComparisons: 540, ConcurrentPairs: 360,
			OverlappingPairs: 86, IntervalsInvolved: 28, CheckEntries: 86, NoticesScanned: 434,
			BitmapsCompared: 238, WordOverlaps: 12},
	},
}

// randomSchedule draws a fixed schedule — which process accesses which word
// in which epoch, under which lock — from the seed: 2–9 processes (so
// arity-2 trees reach three hops: interior nodes that are themselves
// children of interior nodes), 1–3 epochs, up to 4 accesses per process per
// epoch. The race set of a lock-using schedule depends on the lock-grant
// order the managers happen to serialize; runRandomized pins it by
// record/replay.
type schedOp struct {
	word  int
	write bool
	lock  int // -1 = unsynchronized
}

const schedWords = 24

func randomSchedule(seed int64) (nproc int, sched [][][]schedOp) {
	r := rand.New(rand.NewSource(seed))
	nproc = 2 + r.Intn(8)
	sched = make([][][]schedOp, 1+r.Intn(3))
	for e := range sched {
		sched[e] = make([][]schedOp, nproc)
		for p := range sched[e] {
			for k := r.Intn(5); k > 0; k-- {
				sched[e][p] = append(sched[e][p], schedOp{
					word:  r.Intn(schedWords),
					write: r.Intn(2) == 0,
					lock:  r.Intn(3) - 1,
				})
			}
		}
	}
	return nproc, sched
}

// tee fans one run's events out to several tracers.
type tee []Tracer

func (t tee) each(f func(Tracer)) {
	for _, tr := range t {
		f(tr)
	}
}

func (t tee) Read(p int, a mem.Addr)       { t.each(func(tr Tracer) { tr.Read(p, a) }) }
func (t tee) Write(p int, a mem.Addr)      { t.each(func(tr Tracer) { tr.Write(p, a) }) }
func (t tee) Acquire(p, l int)             { t.each(func(tr Tracer) { tr.Acquire(p, l) }) }
func (t tee) Release(p, l int)             { t.each(func(tr Tracer) { tr.Release(p, l) }) }
func (t tee) BarrierArrive(p int, e int32) { t.each(func(tr Tracer) { tr.BarrierArrive(p, e) }) }
func (t tee) BarrierDepart(p int, e int32) { t.each(func(tr Tracer) { tr.BarrierDepart(p, e) }) }

// runSchedule executes the schedule under the pipeline with an hbdet
// reference and the sync-order recorder rec attached to the same execution,
// checks that both detectors flag exactly the same addresses, and returns
// the run's outcome.
func runSchedule(t *testing.T, pl pipeline, proto ProtocolKind, nproc int, sched [][][]schedOp,
	rec *replay.SyncRecord, enf SyncEnforcer) outcome {
	t.Helper()
	hb := hbdet.New(nproc)
	s, err := New(pl.on(Config{
		NumProcs:     nproc,
		SharedSize:   4 * 1024,
		PageSize:     512,
		Protocol:     proto,
		Detect:       true,
		Tracer:       tee{hb, rec},
		SyncEnforcer: enf,
	}))
	if err != nil {
		t.Fatal(err)
	}
	base, _ := s.AllocWords("words", schedWords)
	err = s.Run(func(p *Proc) {
		for _, epoch := range sched {
			for _, o := range epoch[p.ID()] {
				a := base + mem.Addr(o.word*8)
				if o.lock >= 0 {
					p.Lock(o.lock)
				}
				if o.write {
					p.Write(a, uint64(o.word))
				} else {
					p.Read(a)
				}
				if o.lock >= 0 {
					p.Unlock(o.lock)
				}
			}
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []mem.Addr{}
	for _, rep := range s.Races() {
		addrs = append(addrs, rep.Addr)
	}
	slices.Sort(addrs)
	addrs = slices.Compact(addrs)
	if want := hb.RacyAddrs(); !slices.Equal(addrs, want) {
		t.Fatalf("%s %v nproc %d: LRC detector flags %v, happens-before flags %v",
			pl.name, proto, nproc, addrs, want)
	}
	return outcomeOf(s)
}

// runRandomized runs one seed's schedule under the star (recording the
// lock-grant order, §6.1 run 1) and then under each pipeline with a sync
// Enforcer replaying that order — making the executions equivalent and the
// comparison exact. Every run is also held against hbdet, and every replay
// must re-record the order it replayed.
func runRandomized(t *testing.T, seed int64, proto ProtocolKind, pipes []pipeline) {
	t.Helper()
	nproc, sched := randomSchedule(seed)
	rec := replay.NewSyncRecord()
	flat := runSchedule(t, flatPipe, proto, nproc, sched, rec, nil)
	for _, pl := range pipes {
		if pl == flatPipe {
			continue
		}
		again := replay.NewSyncRecord()
		got := runSchedule(t, pl, proto, nproc, sched, again, replay.NewEnforcer(rec))
		if !again.Equal(rec) {
			t.Fatalf("%s %v seed %d: replay re-recorded a different lock order", pl.name, proto, seed)
		}
		got.mustEqual(t, flat, pl.name)
	}
}

// --- the suite ---

// TestPipelinesMatchPinnedReference: every pipeline, under both protocols,
// reproduces the flat-serial literals — report for report, counter for
// counter.
func TestPipelinesMatchPinnedReference(t *testing.T) {
	for _, prog := range pinnedPrograms {
		for _, pl := range pipelines {
			t.Run(prog.name+"/"+pl.name, func(t *testing.T) {
				bothProtocols(t, func(t *testing.T, proto ProtocolKind) {
					s := pl.newSys(t, prog.nproc, proto)
					prog.run(t, s)
					var got []string
					for _, r := range s.Races() {
						got = append(got, r.String())
					}
					if !reflect.DeepEqual(got, prog.races) {
						t.Errorf("reports:\ngot:  %q\nwant: %q", got, prog.races)
					}
					if st := s.DetectorState().Stats; st != prog.stats {
						t.Errorf("detector stats:\ngot:  %+v\nwant: %+v", st, prog.stats)
					}
				})
			})
		}
	}
}

// TestCrossValidationAgainstHappensBefore runs randomized schedules under
// every pipeline — each run watched by the LRC-metadata detector and by
// hbdet on the same execution — and checks that both flag exactly the same
// set of racy addresses and that every pipeline agrees with the star.
func TestCrossValidationAgainstHappensBefore(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run("", func(t *testing.T) { runRandomized(t, seed, SingleWriter, pipelines) })
	}
}

// TestCrossValidationMultiWriter repeats the cross-validation under the
// multi-writer diff protocol: the detector must be protocol-independent.
func TestCrossValidationMultiWriter(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run("", func(t *testing.T) { runRandomized(t, seed, MultiWriter, pipelines) })
	}
}

// TestShardedRandomizedMatchesSerial: a second band of seeds for the shard
// round alone, both protocols.
func TestShardedRandomizedMatchesSerial(t *testing.T) {
	for seed := int64(101); seed <= 110; seed++ {
		runRandomized(t, seed, SingleWriter, []pipeline{shardedPipe})
		runRandomized(t, seed, MultiWriter, []pipeline{shardedPipe})
	}
}

// TestTreeRandomizedMatchesSerial: a third band for the tree rows (arities
// 2–4, and the tree composed with the shard round), both protocols.
func TestTreeRandomizedMatchesSerial(t *testing.T) {
	trees := []pipeline{tree2Pipe, tree3Pipe, tree4Pipe, tree2Shard}
	for seed := int64(201); seed <= 206; seed++ {
		runRandomized(t, seed, SingleWriter, trees)
		runRandomized(t, seed, MultiWriter, trees)
	}
}

// paperScenariosMatch runs the deterministic paper scenarios under the star
// and under each given pipeline and demands exact equality: the report
// lists element-wise and the full detector state snapshot.
func paperScenariosMatch(t *testing.T, pipes ...pipeline) {
	for _, pl := range pipes {
		for _, sc := range paperScenarios {
			t.Run(sc.name, func(t *testing.T) {
				flat := flatPipe.newSys(t, sc.nproc, SingleWriter)
				sc.run(t, flat)
				s := pl.newSys(t, sc.nproc, SingleWriter)
				sc.run(t, s)
				outcomeOf(s).mustEqual(t, outcomeOf(flat), pl.name)
				if len(flat.Races()) == 0 {
					t.Error("scenario found no races; the comparison proves nothing")
				}
			})
		}
	}
}

func TestShardedPaperScenariosMatchSerial(t *testing.T) { paperScenariosMatch(t, shardedPipe) }

func TestTreePaperScenariosMatchSerial(t *testing.T) { paperScenariosMatch(t, tree2Pipe, tree3Pipe) }

// --- crash grids ---

// crashGrid re-runs the recovery scenarios under the pipeline: every
// recovered run must report exactly the races of the flat crash-free
// baseline (two independent equalities in one: pipeline == flat and
// recovered == crash-free). With blame set, suspect naming must also
// converge on exactly the true victim. plans builds a fresh grid per
// scenario: a CrashPlan fires once.
func crashGrid(t *testing.T, pl pipeline, plans func() []*CrashPlan, blame bool) {
	for _, sc := range []recoveryScenario{tspScenario(), mwScenario()} {
		t.Run(sc.name, func(t *testing.T) {
			baseRaces := stableRaceKeys(sc.run(t, nil).Races()) // flat, crash-free
			if len(baseRaces) == 0 {
				t.Fatalf("crash-free %s run found no races; the grid would prove nothing", sc.name)
			}
			run := func(t *testing.T, crash *CrashPlan) *System {
				t.Helper()
				s, err := New(pl.on(recoveryConfig(4, sc.proto, crash, nil)))
				if err != nil {
					t.Fatal(err)
				}
				s.keepCkpts = true
				if err := s.RunEpochs(sc.epochs, sc.setup(t, s)); err != nil {
					t.Fatalf("%s (crash=%+v): %v", sc.name, crash, err)
				}
				return s
			}

			t.Run("crash-free", func(t *testing.T) {
				s := run(t, nil)
				if got := stableRaceKeys(s.Races()); !reflect.DeepEqual(got, baseRaces) {
					t.Errorf("%s crash-free races = %v, want %v", pl.name, got, baseRaces)
				}
				if rs := s.RecoveryStats(); rs.Recoveries != 0 {
					t.Errorf("crash-free %s run performed %d recoveries", pl.name, rs.Recoveries)
				}
			})
			for _, plan := range plans() {
				t.Run(plan.Point.String()+"-victim", func(t *testing.T) {
					s := run(t, plan)
					if got := stableRaceKeys(s.Races()); !reflect.DeepEqual(got, baseRaces) {
						t.Errorf("recovered %s races = %v, want %v", pl.name, got, baseRaces)
					}
					rs := s.RecoveryStats()
					if rs.Recoveries == 0 {
						t.Error("crash plan armed but no recovery happened")
					}
					if blame && rs.LastVictim != plan.Victim {
						t.Errorf("recovery blamed p%d, victim was p%d (via %s)",
							rs.LastVictim, plan.Victim, rs.LastReason)
					}
				})
			}
		})
	}
}

// TestShardedCrashGridMatchesSerial: a crash that wedges a shard owner's
// collection round — including the victim dying between the release and
// its bitmap replies — must still be detected, rolled back, and replayed to
// the flat baseline's races. Under the reliable layer's independent
// per-link retransmission this grid is also what drives round messages
// (BitmapReply, ShardResult) to owners ahead of their own release, through
// the shardPend buffer.
func TestShardedCrashGridMatchesSerial(t *testing.T) {
	crashGrid(t, shardedPipe, func() []*CrashPlan {
		return []*CrashPlan{
			{Victim: 1, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
			{Victim: 2, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
			{Victim: 3, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
			// The sharded-specific hazard: the victim dies between receiving
			// the release and sending its per-owner bitmap replies, wedging
			// every owner's collection round at got=n-1 and the reduction tree
			// above them.
			{Victim: 2, Epoch: 1, Point: CrashInBitmapRound},
			{Victim: 1, Epoch: 0, Point: CrashInBitmapRound},
		}
	}, false)
}

// TestTreeCrashGridMatchesSerial kills each worker in turn under the
// arity-2 tree — at n=4 the topology is 0→{1,2}, 1→{3}, so the grid has an
// interior node (p1, whose death wedges its parent's reduction while its
// own child p3 sits arrived-but-unreleased) and a grandchild leaf (p3, two
// hops from the root) to kill — and demands that suspect naming converge on
// exactly the true victim (no survivor blamed for being wedged behind a
// deeper victim).
func TestTreeCrashGridMatchesSerial(t *testing.T) {
	crashGrid(t, tree2Pipe, func() []*CrashPlan {
		return []*CrashPlan{
			// p1 is the interior node: its parent 0 misses the reduce, its
			// child 3 is arrived but never released.
			{Victim: 1, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
			// p2 is the root's other direct child.
			{Victim: 2, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
			// p3 is the grandchild leaf: the root sees p1 as the missing
			// contributor, and only p1's own verdict names the truth — the
			// multi-hop blame case.
			{Victim: 3, Epoch: 1, Point: CrashMidInterval, AfterN: 2},
			// Death between the release cascade and the bitmap replies.
			{Victim: 2, Epoch: 1, Point: CrashInBitmapRound},
			// Epoch 0: no checkpoint yet, full restart under the tree.
			{Victim: 3, Epoch: 0, Point: CrashMidInterval, AfterN: 1},
		}
	}, true)
}

// TestTreeBlameNamesDeepVictim pins the two-hop blame unit: with p3 dead,
// barrierBlame at the interior node p1 must name p3 directly (got>0,
// missing exactly its own child), while the root — wedged missing p1's
// reduce — must NOT survive as the final verdict once p1 has proven
// itself alive by accusing. Covered end-to-end by the crash grid above;
// this test pins the per-node half so a blame regression fails with a
// readable message.
func TestTreeBlameNamesDeepVictim(t *testing.T) {
	s := tree2Pipe.newSys(t, 4, SingleWriter)
	// Procs exist only once a program runs; a trivial one will do.
	if err := s.Run(func(p *Proc) { p.Barrier() }); err != nil {
		t.Fatal(err)
	}
	// Simulate the wedge by hand: p1 holds its own arrival but not p3's.
	p1 := s.Procs()[1]
	p1.mu.Lock()
	p1.tree.got = 1
	p1.tree.from[1] = true
	p1.mu.Unlock()
	suspect, detail := p1.barrierBlame("barrier release")
	if suspect != 3 {
		t.Errorf("interior blame = p%d, want p3 (detail %q)", suspect, detail)
	}

	// Root missing the whole left subtree cannot name one victim (both 1
	// and 3 are uncovered) but must say which procs never contributed.
	p0 := s.Procs()[0]
	p0.mu.Lock()
	p0.tree.got = 2
	p0.tree.from[0] = true
	p0.tree.from[2] = true
	p0.mu.Unlock()
	suspect, detail = p0.barrierBlame("barrier release")
	if suspect != 1 {
		t.Errorf("root blame = p%d, want its missing direct child p1", suspect)
	}
	if detail == "" {
		t.Error("root blame detail empty; want the uncovered procs listed")
	}

	// Verdict reconciliation: whichever order the two accusations land,
	// the surviving suspect is the deep victim p3.
	for _, order := range [][2][2]int{
		{{0, 1}, {1, 3}}, // root first, then interior
		{{1, 3}, {0, 1}}, // interior first, then root
	} {
		s.resetSuspectLocked()
		for _, acc := range order {
			s.noteTimeoutVerdict(acc[0], acc[1])
		}
		s.recMu.Lock()
		got := s.suspect
		s.recMu.Unlock()
		if got != 3 {
			t.Errorf("order %v: converged on p%d, want p3", order, got)
		}
	}
}

// TestEarlyRoundMessagesBuffered pins the bitmap round's one ordering
// hazard: a BitmapReply or ShardResult that beats this process's own copy
// of the release (the reliable layer retransmits per link) parks in
// shardPend, is drained in order when the release opens the round, and a
// message for the NEXT epoch stays parked.
func TestEarlyRoundMessagesBuffered(t *testing.T) {
	s := shardedPipe.newSys(t, 4, SingleWriter)
	p := newProc(s, 1) // owner below; reduction child p3, parent p0

	early := []simnet.Delivery{
		{From: 3, Msg: &msg.ShardResult{Epoch: 0, Races: []race.Report{{Word: 7}}, BitmapsCompared: 2}},
		{From: 2, Msg: &msg.BitmapReply{Epoch: 0}},
		{From: 0, Msg: &msg.BitmapReply{Epoch: 1}},
	}
	for _, d := range early {
		p.handleShardRound(d)
	}
	if p.shard != nil || len(p.shardPend) != len(early) {
		t.Fatalf("before the release: round open = %v, %d parked, want closed and %d",
			p.shard != nil, len(p.shardPend), len(early))
	}

	rel := &msg.BarrierRelease{Epoch: 0, NeedBitmaps: true,
		Check: []race.CheckEntry{{Page: 1}}, ShardOwner: []int32{1}}
	p.mu.Lock()
	p.openCheckRoundLocked(simnet.Delivery{From: 0, Msg: rel}, rel)
	p.mu.Unlock()

	sh := p.shard
	if sh == nil {
		t.Fatal("round closed with replies outstanding")
	}
	if sh.expect != 4 || sh.got != 1 || !sh.from[2] {
		t.Errorf("replies: expect %d got %d from %v; want 4, 1, p2 only", sh.expect, sh.got, sh.from)
	}
	if sh.kidsLeft != 0 || len(sh.reports) != 1 || sh.bmCmp != 2 {
		t.Errorf("child result not merged: kidsLeft %d, %d reports, bmCmp %d", sh.kidsLeft, len(sh.reports), sh.bmCmp)
	}
	if len(p.shardPend) != 1 || p.shardPend[0].From != 0 {
		t.Errorf("next-epoch reply not kept parked: %+v", p.shardPend)
	}
}

// --- where the work lands ---

// runSpread runs a racy many-page program (a fat check list each epoch)
// under the pipeline.
func runSpread(t *testing.T, pl pipeline) *System {
	t.Helper()
	s, err := New(pl.on(Config{
		NumProcs:   4,
		SharedSize: 16 * 1024,
		PageSize:   512,
		Protocol:   SingleWriter,
		Detect:     true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	base, _ := s.AllocWords("spread", 1024)
	err = s.Run(func(p *Proc) {
		for e := 0; e < 2; e++ {
			for w := 0; w < 64; w++ {
				p.Write(base+mem.Addr(((w*4+p.ID())*8)%(1024*8)), uint64(w))
			}
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedWorkSpreadsAcrossProcs: under the sharded check the comparison
// work must land on more than one process, with a single owner it stays at
// the root, and either way the per-proc counters must sum to the detector's
// global totals (so the telemetry split in internal/harness adds up).
func TestShardedWorkSpreadsAcrossProcs(t *testing.T) {
	for _, pl := range []pipeline{flatPipe, shardedPipe} {
		s := runSpread(t, pl)
		var sumEntries, sumBitmaps int64
		procsWithWork := 0
		for _, p := range s.Procs() {
			st := p.Stats()
			sumEntries += st.CheckEntriesCompared
			sumBitmaps += st.BitmapsCompared
			if st.CheckEntriesCompared > 0 {
				procsWithWork++
			}
		}
		if det := s.DetectorStats(); sumBitmaps != int64(det.BitmapsCompared) {
			t.Errorf("%s: per-proc BitmapsCompared sums to %d, detector says %d",
				pl.name, sumBitmaps, det.BitmapsCompared)
		}
		if sumEntries == 0 {
			t.Errorf("%s: no comparison work recorded at all", pl.name)
		}
		if pl.sharded && procsWithWork < 2 {
			t.Errorf("sharded check did all comparison work at %d proc(s); want it spread", procsWithWork)
		}
		if !pl.sharded && procsWithWork != 1 {
			t.Errorf("serial check recorded comparison work at %d procs; want the root only", procsWithWork)
		}
	}
}

// TestTreeWorkSpreadsAcrossProcs: under a tree the check-list construction
// work (TIntervalCmp) must land on more than one process, while under the
// star it stays entirely at the root.
func TestTreeWorkSpreadsAcrossProcs(t *testing.T) {
	for _, pl := range []pipeline{flatPipe, tree2Pipe} {
		s := runSpread(t, pl)
		var total int64
		procsWithWork := 0
		for _, p := range s.Procs() {
			st := p.Stats()
			total += st.TIntervalCmp
			if st.TIntervalCmp > 0 {
				procsWithWork++
			}
		}
		if total == 0 {
			t.Errorf("%s: no interval-comparison work recorded at all", pl.name)
		}
		if pl.tree >= 2 && procsWithWork < 2 {
			t.Errorf("tree build did all comparison work at %d proc(s); want it spread", procsWithWork)
		}
		if pl.tree == 0 && procsWithWork != 1 {
			t.Errorf("star build recorded comparison work at %d procs; want the root only", procsWithWork)
		}
	}
}

// --- configuration and shape ---

// TestShardedCheckRequiresDetect: config-layer gating.
func TestShardedCheckRequiresDetect(t *testing.T) {
	if _, err := New(Config{NumProcs: 2, SharedSize: 4096, ShardedCheck: true}); err == nil {
		t.Fatal("ShardedCheck without Detect accepted")
	}
}

// TestBarrierTreeConfigValidation: arity 1 is a degenerate chain and
// negative arities are nonsense; both must be rejected at New.
func TestBarrierTreeConfigValidation(t *testing.T) {
	for _, k := range []int{1, -1, -7} {
		if _, err := New(Config{NumProcs: 2, SharedSize: 4096, BarrierTree: k}); err == nil {
			t.Errorf("BarrierTree=%d accepted; want arity ≥ 2 or 0", k)
		}
	}
	if _, err := New(Config{NumProcs: 2, SharedSize: 4096, BarrierTree: 2}); err != nil {
		t.Errorf("BarrierTree=2 rejected: %v", err)
	}
}

// TestTreeTopologyHelpers pins the shape functions the protocol and the
// blame logic both lean on: parent/children are mutually consistent and
// treeSubtree covers every proc exactly once across the root's children
// plus the root itself — for the tree arities and for the star's N−1.
func TestTreeTopologyHelpers(t *testing.T) {
	for n := 2; n <= 17; n++ {
		for _, k := range []int{2, 3, 4, n - 1} {
			if k < 1 {
				continue
			}
			for p := 0; p < n; p++ {
				for _, c := range treeChildren(p, k, n) {
					if got := treeParent(c, k); got != p {
						t.Fatalf("k=%d n=%d: parent(child %d of %d) = %d", k, n, c, p, got)
					}
				}
			}
			seen := make([]bool, n)
			for _, q := range treeSubtree(0, k, n) {
				if seen[q] {
					t.Fatalf("k=%d n=%d: %d appears twice in root subtree", k, n, q)
				}
				seen[q] = true
			}
			for q, ok := range seen {
				if !ok {
					t.Fatalf("k=%d n=%d: proc %d missing from root subtree", k, n, q)
				}
			}
		}
		// The star: the root is the only interior node.
		if st := newTreeState(0, 0, n); !st.star || st.expect != n {
			t.Fatalf("n=%d: star root expects %d contributions (star=%v), want %d", n, st.expect, st.star, n)
		}
		if st := newTreeState(n-1, 0, n); st.expect != 0 || treeParent(n-1, st.arity) != 0 {
			t.Fatalf("n=%d: star leaf p%d expects %d, parent p%d", n, n-1, st.expect, treeParent(n-1, st.arity))
		}
	}
}

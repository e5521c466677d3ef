// Package dsm implements the CVM-equivalent software distributed shared
// memory system: a lazy-release-consistent (LRC) multi-processor built from
// per-process page copies, interval records, version vectors, write
// notices, a 3-hop distributed lock protocol, and a centralized barrier —
// plus the three modifications the paper makes for race detection:
//
//	(i)   instrumentation collecting read and write access information
//	      (word bitmaps per page per interval),
//	(ii)  read notices added to the messages that already carry write
//	      notices, and
//	(iii) an extra message round at barriers to retrieve word-level access
//	      bitmaps when the check list is non-empty.
//
// Each DSM "process" is a coroutine running the application, plus the
// protocol handlers called for each message delivered to it, with its own
// private copy of the shared segment; processes communicate only through
// serialized messages on a simulated network. One scheduler per run
// (sched.go) steps them all in virtual-time order, so an input has exactly
// one interleaving. Two coherence protocols are provided behind one interface,
// mirroring CVM's design: the single-writer ownership-migration protocol
// the paper ran, and the multi-writer home-based diff protocol of its §6.5.
package dsm

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"lrcrace/internal/castore"
	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/race"
	"lrcrace/internal/reliable"
	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"
)

// ProtocolKind selects the coherence protocol.
type ProtocolKind int

const (
	// SingleWriter is the ownership-migration protocol used for all the
	// paper's measurements.
	SingleWriter ProtocolKind = iota
	// MultiWriter is the home-based protocol with twins and diffs (§6.5).
	MultiWriter
	// EagerRC is eager release consistency (§3.1): a releasing process
	// pushes invalidations for its modified pages to every other process
	// and waits for acknowledgments before the release completes. No
	// consistency information travels on acquires. Provided as the
	// comparison point LRC improves on; race detection is NOT available
	// under it — the ordering metadata the detector leverages is exactly
	// what LRC maintains and ERC does not.
	EagerRC
)

func (k ProtocolKind) String() string {
	switch k {
	case MultiWriter:
		return "multi-writer"
	case EagerRC:
		return "eager-rc"
	default:
		return "single-writer"
	}
}

// Config describes one DSM instance.
type Config struct {
	NumProcs   int
	SharedSize int // bytes of shared segment (rounded up to pages)
	PageSize   int // a power of two; 0 → mem.DefaultPageSize
	Protocol   ProtocolKind

	// Detect enables the race detector: access instrumentation, read
	// notices, and the barrier comparison/bitmap rounds.
	Detect bool
	// FirstRacesOnly applies §6.4 first-race filtering at the master.
	FirstOnly bool
	// WritesFromDiffs (§6.5, MultiWriter only) derives write bitmaps from
	// diffs instead of store instrumentation. Reads remain instrumented.
	WritesFromDiffs bool
	// ShardedCheck distributes the barrier's bitmap round (shard.go): the
	// root partitions the check list by page across all N processes
	// (race.PartitionCheckList), bitmap replies route to each shard's
	// owner, owners compare their shards in parallel, and results reduce
	// back to the root up a binary tree. Off, the same round runs with
	// process 0 as the single owner and no reduction — the paper's serial
	// check at the barrier master. Reported races and persistent detector
	// state are identical either way. Requires Detect.
	ShardedCheck bool

	// BarrierTree is the arity (≥ 2) of the barrier's arrival tree
	// (tree.go): arrivals reduce up a k-ary implicit heap rooted at process
	// 0 — each interior node merging its subtree's interval metadata and
	// building the check-list slice for the pairs that first meet there —
	// and the release cascades back down it, cut-through. 0 is arity N−1:
	// a star whose only interior node is the root, i.e. the paper's flat
	// centralized barrier, with the release a plain broadcast. It is the
	// same code either way, so neither is an oracle for the other: the
	// references are hbdet on the same execution, the pinned flat-serial
	// literals of crossval_test.go, and race.Detector.BuildCheckList /
	// Compare, which internal/dsm no longer calls. Composes with
	// ShardedCheck (the tree shapes arrivals and the build, the shards the
	// bitmap comparison).
	BarrierTree int

	// Tracer, if non-nil, observes every shared access and synchronization
	// event, each Release before the Acquire it enables. It is the DSM's
	// one observer seam: hbdet.Detector, trace.Writer, and the §6.1
	// scheme's replay.SyncRecord (run 1's lock order) and
	// replay.SiteCollector (run 2's access sites) all attach here.
	Tracer Tracer

	// Faults makes the simulated network lossy: a deterministic,
	// seed-driven plan of per-link drops, duplications, bounded
	// reordering, and latency jitter (see simnet.FaultPlan). The protocol
	// assumes reliable FIFO links, so a plan with drop/dup/reorder makes
	// the run carry the reliability sublayer (see Transport).
	Faults *simnet.FaultPlan

	// NoCheckpoint disables barrier-epoch checkpointing, which is ON by
	// default: at every barrier departure each process serializes its
	// recovery state — page copies and rights, twins, version vector,
	// interval log and bitmaps, lock table, statistics, and the master's
	// detector state with the run's race reports — as a chunked manifest
	// whose unchanged payloads dedup across epochs (see CheckpointStats
	// for the measured sizes). Incremental chunking is what makes
	// always-on affordable; disable only for A/B overhead measurement.
	// Checkpointing is required for crash recovery (RunEpochs + crash
	// plans).
	NoCheckpoint bool

	// Crashes schedules the injected fail-stop deaths of processes (see
	// CrashPlan): one plan, or several for compound faults — two victims
	// in one epoch, or a second crash armed only during recovery
	// (CrashPlan.DuringRecovery). Requires checkpointing (NoCheckpoint
	// false). Survivors detect a death by link retry-cap exhaustion in the
	// reliability sublayer every recovering run carries, or, at once, as a
	// deadlock.
	Crashes []*CrashPlan

	// Corruption schedules deterministic damage to stored checkpoint
	// chunks (see CorruptionPlan) — exercised when a later rollback finds
	// the damaged epoch's closure unverifiable and falls back. Requires
	// checkpointing.
	Corruption *CorruptionPlan

	// Recorder, when non-nil, receives this System's telemetry — protocol
	// events, fault-injection and retransmission events, flight dumps, and
	// the event-derived metrics (telemetry.New builds one). Each System
	// records only into its own handle, so many can run concurrently in
	// one process without interleaving rings and registries (see
	// internal/sweep). Nil means no telemetry.
	Recorder *telemetry.Recorder
}

// Tracer observes the execution. Its methods are called on the run's one
// thread, in run order: a Release is always delivered before the Acquire it
// enables, and all of an epoch's BarrierArrive calls precede its
// BarrierDepart calls. So the per-lock sequence of Acquire calls is the
// tenure order the lock managers serialized, which is what
// replay.SyncRecord records. An implementation needs no lock as long as it
// is read only after Run returns. There are four: hbdet.Detector (the
// happens-before reference), trace.Writer (the post-mortem log),
// replay.SyncRecord (§6.1 run 1) and replay.SiteCollector (§6.1 run 2: the
// call sites of accesses to one address).
type Tracer interface {
	Read(proc int, addr mem.Addr)
	Write(proc int, addr mem.Addr)
	Acquire(proc, lock int)
	Release(proc, lock int)
	BarrierArrive(proc int, epoch int32)
	BarrierDepart(proc int, epoch int32)
}

// Transport carries the DSM's messages: the simulated network
// (internal/simnet), wrapped in the reliability sublayer (internal/reliable)
// when the run needs it — the wire is lossy (Config.Faults) or recovery is
// armed (crash plans, or RunEpochs with checkpointing). The sublayer is
// the CVM-style end-to-end retransmission that lets the DSM run unchanged
// over a lossy wire, exactly as CVM ran over raw UDP, and its link deaths
// are how survivors name a crashed peer. Its deadlines are virtual and
// fire when the scheduler has nothing else to do, so such a run is still
// one interleaving per input.
//
// A send is delivered into the FIFO of its directed link in the network
// (simnet.Network.Link), by the time Send returns or, over the sublayer,
// once it is in sequence; the scheduler hands each link's head to its
// handler from there. A sent message is frozen: the network encodes it only
// for its size and may deliver the very message sent, so the sender never
// writes to it, or to anything it references, after Send, and receivers
// only read it. A sender that would pass live or scratch state passes a
// copy, or gives the state up. The one thing a receiver owns is a
// PageReply's Data: the sender hands it over as a frame of its own
// (mem.GetFrame), the fetching process keeps it as its page frame, and the
// frame it replaces goes back to the pool.
type Transport interface {
	// Send hands m to process to, tagged with the sender's virtual clock,
	// and returns the wire size in bytes. m is frozen from then on.
	Send(from, to int, m msg.Message, vtime int64) int
	// Forward re-sends d, a message the caller has received, toward
	// process to with the given virtual send time, and returns the wire
	// size in bytes, which is what Send would return for d.Msg. The
	// message was serialized once, for its byte count, when it was first
	// sent; Forward delivers the same frozen message again.
	Forward(from, to int, d simnet.Delivery, vtime int64) int
	// Stats returns traffic counters.
	Stats() simnet.Stats
}

// Validate reports the first rule the configuration breaks. It changes
// nothing and builds nothing, so layers above (harness.ValidateRunConfig,
// and through it the sweep's grid expansion and the service's admission
// gate) reach the DSM's combination rules by calling it on the Config they
// would pass to New, instead of restating them.
func (c *Config) Validate() error {
	if c.NumProcs < 1 {
		return fmt.Errorf("dsm: NumProcs = %d", c.NumProcs)
	}
	if c.SharedSize <= 0 {
		return fmt.Errorf("dsm: SharedSize = %d", c.SharedSize)
	}
	if c.PageSize != 0 {
		if _, err := mem.NewLayout(c.SharedSize, c.PageSize); err != nil {
			return fmt.Errorf("dsm: PageSize = %d: %w", c.PageSize, err)
		}
		if c.PageSize > castore.MaxChunk && c.checkpointing() {
			return fmt.Errorf("dsm: PageSize = %d: a checkpoint chunk holds at most %d bytes", c.PageSize, castore.MaxChunk)
		}
	}
	if c.WritesFromDiffs && c.Protocol != MultiWriter {
		return fmt.Errorf("dsm: WritesFromDiffs requires the multi-writer protocol")
	}
	if c.ShardedCheck && !c.Detect {
		return fmt.Errorf("dsm: ShardedCheck distributes the race check and so requires Detect")
	}
	if err := CheckBarrierTree(c.BarrierTree); err != nil {
		return err
	}
	if c.Detect && c.Protocol == EagerRC {
		return fmt.Errorf("dsm: race detection requires LRC metadata (intervals, version vectors, notices) that the eager protocol does not maintain — use SingleWriter or MultiWriter")
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("dsm: %w", err)
		}
	}
	if len(c.Crashes) > 0 {
		for _, cp := range c.Crashes {
			if err := cp.Validate(c.NumProcs); err != nil {
				return fmt.Errorf("dsm: %w", err)
			}
		}
		if c.NoCheckpoint {
			return fmt.Errorf("dsm: crash plans require checkpointing: recovery restores from barrier-epoch checkpoints")
		}
	}
	if c.Corruption != nil {
		if err := c.Corruption.Validate(); err != nil {
			return fmt.Errorf("dsm: %w", err)
		}
		if c.NoCheckpoint {
			return fmt.Errorf("dsm: Corruption attacks stored checkpoints and so requires checkpointing")
		}
		if len(c.Crashes) == 0 {
			return fmt.Errorf("dsm: Corruption is only observable during rollback; schedule a crash (Crashes) to trigger one")
		}
	}
	return nil
}

// CheckBarrierTree reports whether k is a usable Config.BarrierTree value,
// for callers that hold an arity but no Config yet (a sweep plan's axis).
func CheckBarrierTree(k int) error {
	if k == 1 || k < 0 {
		return fmt.Errorf("dsm: BarrierTree = %d: the combining tree needs arity ≥ 2 (0 = flat barrier)", k)
	}
	return nil
}

// fill validates the configuration and applies the zero-value defaults.
func (c *Config) fill() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.PageSize == 0 {
		c.PageSize = mem.DefaultPageSize
	}
	return nil
}

// checkpointing reports whether barrier-epoch checkpointing is on — the
// default; NoCheckpoint opts out.
func (c *Config) checkpointing() bool { return !c.NoCheckpoint }

// Symbol names an allocated shared variable, for mapping race addresses
// back to source-level names (the paper does this with symbol tables).
type Symbol struct {
	Name string
	Base mem.Addr
	Size int
}

// System is one DSM instance: shared-segment layout, symbol table, network,
// and the per-process runtimes.
type System struct {
	cfg    Config
	layout mem.Layout
	nw     Transport
	wire   *simnet.Network // the current attempt's network, under nw
	procs  []*Proc

	// tel is the telemetry destination every layer of this System emits
	// through: cfg.Recorder, or off when that is nil.
	tel telemetry.Scope

	allocNext mem.Addr
	symbols   []Symbol

	detector *race.Detector // lives at the barrier root (proc 0)
	raceOpts race.Options   // detector options

	// Crash recovery (see checkpoint.go / recovery.go).
	ckpts       *CheckpointStore
	keepCkpts   bool                            // test seam: the store never collects an epoch
	allDirty    bool                            // test seam: every checkpoint deposits every page copy
	wrapNet     func(Transport) Transport       // test seam: wraps each attempt's built transport
	seeDelivery func(to int, d simnet.Delivery) // test seam: sees, and may alter, each delivery before its handler runs
	rel         *reliable.Transport             // the current attempt's sublayer; nil when the run needs none
	epochMode   bool
	recStats    RecoveryStats
	sched       *sched // the current attempt's

	// Injection state, kept for the whole run across its rollback
	// attempts (a plan fires at most once per System; DuringRecovery
	// plans wait for a rollback): crashFired[i] is whether
	// cfg.Crashes[i] has fired.
	crashFired   []bool
	corruptFired bool

	suspect    int          // proc suspected dead this attempt; -1 unknown
	suspectVia string       // "link-death" | "barrier-timeout" | ""
	crashSeen  bool         // an injected crashPanic unwound this attempt
	aliveProcs map[int]bool // procs that proved themselves alive by accusing

	runErr error
	ran    bool // Run or RunEpochs has been called; runErr is its result
}

// New builds a System; call Alloc to lay out shared variables, then Run.
func New(cfg Config) (*System, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	l, err := mem.NewLayout(cfg.SharedSize, cfg.PageSize)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, layout: l, tel: telemetry.To(cfg.Recorder), crashFired: make([]bool, len(cfg.Crashes))}
	if cfg.Detect {
		s.raceOpts = race.Options{FirstOnly: cfg.FirstOnly}
		s.detector = race.NewDetector(l, s.raceOpts)
	}
	return s, nil
}

// Layout returns the shared segment geometry.
func (s *System) Layout() mem.Layout { return s.layout }

// Config returns the configuration in effect.
func (s *System) Config() Config { return s.cfg }

// Alloc reserves size bytes of shared memory under the given symbol name
// and returns its base address. All shared data is dynamically allocated,
// as in CVM — which is what lets the ATOM-model classifier discard accesses
// through the static-data base register. Allocations are word-aligned.
func (s *System) Alloc(name string, size int) (mem.Addr, error) {
	if s.ran {
		return 0, fmt.Errorf("dsm: Alloc(%q) after Run", name)
	}
	if size <= 0 {
		return 0, fmt.Errorf("dsm: Alloc(%q, %d): size must be positive", name, size)
	}
	aligned := (size + mem.WordSize - 1) &^ (mem.WordSize - 1)
	base := s.allocNext
	if int(base)+aligned > s.layout.Size() {
		return 0, fmt.Errorf("dsm: Alloc(%q, %d): shared segment exhausted (%d of %d used)",
			name, size, base, s.layout.Size())
	}
	s.allocNext += mem.Addr(aligned)
	s.symbols = append(s.symbols, Symbol{Name: name, Base: base, Size: aligned})
	return base, nil
}

// AllocWords reserves n words and returns the base address.
func (s *System) AllocWords(name string, n int) (mem.Addr, error) {
	return s.Alloc(name, n*mem.WordSize)
}

// AllocBytes returns the number of shared bytes allocated so far.
func (s *System) AllocBytes() int { return int(s.allocNext) }

// SymbolAt returns the symbol covering addr, if any.
func (s *System) SymbolAt(addr mem.Addr) (Symbol, bool) {
	i := sort.Search(len(s.symbols), func(i int) bool {
		return s.symbols[i].Base+mem.Addr(s.symbols[i].Size) > addr
	})
	if i < len(s.symbols) && addr >= s.symbols[i].Base {
		return s.symbols[i], true
	}
	return Symbol{}, false
}

// Symbols returns the allocation table.
func (s *System) Symbols() []Symbol { return s.symbols }

// Run executes app once per process, each as its own coroutine, and blocks
// until every process has finished and passed the implicit final barrier
// (at which the last race-detection pass runs). It may be called once. The
// processes take turns on one thread, so app must not wait on another
// process through Go synchronization (a channel, a mutex): it would wait
// forever. A Gate orders processes without DSM synchronization. Run never
// rolls back, so it refuses a Config with crash plans before anything
// runs: only RunEpochs recovers from a crash.
func (s *System) Run(app func(p *Proc)) error {
	if !s.ran {
		s.ran = true
		s.runErr = s.run(app)
	}
	return s.runErr
}

func (s *System) run(app func(p *Proc)) error {
	if len(s.cfg.Crashes) > 0 {
		return errors.New("dsm: Run cannot recover from Config.Crashes; crash plans need RunEpochs")
	}
	s.initCheckpoints()
	return s.attempt(func(p *Proc) {
		app(p)
		p.Barrier() // final global synchronization = last detection pass
	}, nil)
}

// Races returns every race reported during the run, in detection order,
// or nil when detection is off. The list is the detector's, the one copy
// the barrier master keeps (and checkpoints); the caller must not modify it.
func (s *System) Races() []race.Report {
	if s.detector == nil {
		return nil
	}
	return s.detector.Reports()
}

// ExplainRace reconstructs the happens-before-1 derivation behind a
// reported race (why the two intervals are concurrent, and on which pages
// they overlap). ok is false if detection was off or the report is unknown.
func (s *System) ExplainRace(r race.Report) (string, bool) {
	if s.detector == nil {
		return "", false
	}
	return s.detector.ExplainReport(r)
}

// DetectorStats returns the master-side comparison-algorithm counters.
func (s *System) DetectorStats() race.Stats {
	if s.detector == nil {
		return race.Stats{}
	}
	return s.detector.Stats()
}

// DetectorState returns a deep snapshot of the detector's persistent state
// (counters, first-racy-epoch marker, retained racy records, reports).
// Every barrier topology (Config.BarrierTree × Config.ShardedCheck) must
// produce byte-identical snapshots on the same program.
func (s *System) DetectorState() race.State {
	if s.detector == nil {
		return race.State{}
	}
	return s.detector.SnapshotState()
}

// NetStats returns traffic counters; they are zero before a run starts.
func (s *System) NetStats() simnet.Stats {
	if s.nw == nil {
		return simnet.Stats{}
	}
	return s.nw.Stats()
}

// Procs returns the process runtimes (valid after Run for stats reading).
func (s *System) Procs() []*Proc { return s.procs }

// SnapshotWord returns the authoritative value of the shared word at a
// after a completed run: the owner's copy under the single-writer protocol,
// the home's copy under multi-writer. Only valid once Run has returned.
func (s *System) SnapshotWord(a mem.Addr) uint64 {
	pg := s.layout.Page(a)
	switch s.cfg.Protocol {
	case SingleWriter, EagerRC:
		for _, p := range s.procs {
			if p.owned[pg] {
				return p.seg.Word(a)
			}
		}
		// Ownership in flight at shutdown cannot happen after a clean run;
		// fall back to the directory.
		home := s.procs[int(pg)%s.cfg.NumProcs]
		return s.procs[home.dirOwner[pg]].seg.Word(a)
	default:
		return s.procs[int(pg)%s.cfg.NumProcs].seg.Word(a)
	}
}

// SnapshotF64 returns SnapshotWord reinterpreted as a float64.
func (s *System) SnapshotF64(a mem.Addr) float64 {
	return math.Float64frombits(s.SnapshotWord(a))
}

// VirtualTime returns the end-to-end virtual runtime: the maximum process
// clock at completion.
func (s *System) VirtualTime() int64 {
	var t int64
	for _, p := range s.procs {
		if p.vnow > t {
			t = p.vnow
		}
	}
	return t
}

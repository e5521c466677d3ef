// Package lrcrace is an implementation and experimental reproduction of
// "Online Data-Race Detection via Coherency Guarantees" (Perković &
// Keleher, OSDI 1996): an on-the-fly data-race detector built into a
// lazy-release-consistent (LRC) software distributed shared memory system.
//
// The key idea of the paper is that an LRC DSM already maintains enough
// ordering metadata — intervals, version vectors, write notices — to decide
// in constant time whether two shared accesses are concurrent. Adding read
// notices and word-granularity access bitmaps, and running a comparison
// pass at barriers, yields a detector for every data race that occurs in an
// execution, with no compiler support.
//
// The package exposes the full system:
//
//   - a CVM-equivalent DSM (System/Proc): paged shared memory with
//     per-process copies, a single-writer ownership protocol and a
//     multi-writer home-based diff protocol, distributed locks, barriers,
//     and a simulated network that really serializes every message;
//   - the race detector, enabled with Config.Detect, reporting races by
//     address with symbol-table resolution;
//   - §6.4 first-race filtering (Config.FirstOnly), §6.5 diff-derived write
//     detection (Config.WritesFromDiffs), and the §6.1 two-run replay
//     scheme (SyncRecord and SiteCollector attach via Config.Tracer; run 2
//     is the same Config run again, which repeats run 1's execution);
//   - the four benchmark applications of the paper's evaluation (FFT, SOR,
//     TSP with its deliberately racy tour bound, Water with the seeded
//     Splash2 write-write bug), and the experiment harness that regenerates
//     every table and figure.
//
// # Quick start
//
//	sys, _ := lrcrace.New(lrcrace.Config{NumProcs: 2, SharedSize: 8192, Detect: true})
//	x, _ := sys.AllocWords("x", 1)
//	_ = sys.Run(func(p *lrcrace.Proc) {
//	    p.Write(x, uint64(p.ID())) // unsynchronized concurrent writes
//	    p.Barrier()                // detection runs here
//	})
//	for _, r := range lrcrace.DedupRaces(sys.Races()) {
//	    fmt.Println(r) // write-write race at addr 0x0 ...
//	}
package lrcrace

import (
	"io"

	"lrcrace/internal/dsm"
	"lrcrace/internal/gofront"
	"lrcrace/internal/harness"
	"lrcrace/internal/hbdet"
	"lrcrace/internal/mem"
	"lrcrace/internal/race"
	"lrcrace/internal/replay"
	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"
	"lrcrace/internal/trace"
)

// Core DSM and detector types.
type (
	// Config configures a System; see the field docs in internal/dsm.
	Config = dsm.Config
	// System is one DSM instance: shared segment, processes, detector.
	System = dsm.System
	// Proc is the per-process handle the worker function receives.
	Proc = dsm.Proc
	// Gate orders processes without DSM synchronization (Open, then
	// Proc.Wait). Processes take turns on one thread, so a worker must not
	// wait on another process through a Go channel or mutex.
	Gate = dsm.Gate
	// Protocol selects the coherence protocol.
	Protocol = dsm.ProtocolKind
	// Tracer observes a run's accesses and synchronization events, on the
	// run's one thread and in run order; set it via Config.Tracer.
	Tracer = dsm.Tracer
	// Symbol names an allocated shared variable.
	Symbol = dsm.Symbol
	// Addr is a byte offset into the shared segment.
	Addr = mem.Addr
	// Race is one detected data race.
	Race = race.Report
	// DetectorStats are the comparison-algorithm counters.
	DetectorStats = race.Stats
	// FaultPlan injects deterministic wire faults (drops, duplicates,
	// reordering, latency jitter) into the simulated network; set it via
	// Config.Faults. A lossy plan makes the run layer CVM-style end-to-end
	// retransmission over the faulty wire.
	FaultPlan = simnet.FaultPlan
	// NetStats are the per-message-type wire counters a run accumulates,
	// including fault-injection and retransmission counts.
	NetStats = simnet.Stats
)

// Coherence protocols.
const (
	// SingleWriter is the ownership-migration protocol the paper ran.
	SingleWriter = dsm.SingleWriter
	// MultiWriter is the home-based twin/diff protocol of §6.5.
	MultiWriter = dsm.MultiWriter
	// EagerRC is eager release consistency — the §3.1 comparison point;
	// coherence only, no race detection (ERC lacks the LRC metadata the
	// detector leverages).
	EagerRC = dsm.EagerRC
)

// ParseProtocol reads a protocol's short name, "sw" or "mw".
func ParseProtocol(name string) (Protocol, error) { return dsm.ParseProtocol(name) }

// New builds a DSM instance. Allocate shared variables with Alloc, then
// call Run with the per-process worker.
func New(cfg Config) (*System, error) { return dsm.New(cfg) }

// Crash tolerance (see docs/ROBUSTNESS.md): always-on barrier-epoch
// checkpointing (disable with Config.NoCheckpoint), injected fail-stop
// crashes (Config.Crashes), checkpoint corruption
// (Config.Corruption), and coordinated rollback recovery via
// System.RunEpochs.
type (
	// CrashPlan schedules the deterministic fail-stop death of one process;
	// set one or several via Config.Crashes. Recovery requires
	// checkpointing (the default); survivors detect the death by link
	// retry-cap exhaustion or, at once, as a deadlock.
	CrashPlan = dsm.CrashPlan
	// CorruptionPlan deterministically damages stored checkpoint chunks, so
	// rollback must verify and fall back; set it via Config.Corruption.
	CorruptionPlan = dsm.CorruptionPlan
	// CorruptMode selects how the corruption plan damages chunks.
	CorruptMode = dsm.CorruptMode
	// CrashPoint selects where in the protocol the victim dies.
	CrashPoint = dsm.CrashPoint
	// EpochFunc is one epoch body for System.RunEpochs — the epoch-structured
	// entry point that can roll back and re-execute after a crash.
	EpochFunc = dsm.EpochFunc
	// CheckpointStats measures the serialized barrier-epoch checkpoints:
	// manifest and chunk bytes, dedup hits, and retention-GC totals.
	CheckpointStats = dsm.CheckpointStats
	// RecoveryStats summarizes coordinated rollbacks: counts, reclaimed
	// locks, re-executed virtual time, restore wall time.
	RecoveryStats = dsm.RecoveryStats
)

// Crash points.
const (
	// CrashMidInterval dies at the AfterN-th shared access of the epoch.
	CrashMidInterval = dsm.CrashMidInterval
	// CrashAtVTime dies at the first access at or after VTime.
	CrashAtVTime = dsm.CrashAtVTime
	// CrashHoldingLock dies at the first access made while holding a lock.
	CrashHoldingLock = dsm.CrashHoldingLock
	// CrashInBitmapRound dies inside the barrier, before sending bitmaps.
	CrashInBitmapRound = dsm.CrashInBitmapRound
)

// Corruption modes.
const (
	// CorruptChunk flips a bit in a stored checkpoint chunk.
	CorruptChunk = dsm.CorruptChunk
	// DeleteChunk drops a stored chunk's payload entirely.
	DeleteChunk = dsm.DeleteChunk
)

// RandomCrashPlan derives a valid, deterministic crash plan from a seed —
// the chaos-testing entry point.
func RandomCrashPlan(seed uint64, nprocs int, epochs int32) *CrashPlan {
	return dsm.RandomCrashPlan(seed, nprocs, epochs)
}

// DedupRaces collapses dynamic race reports to one representative per
// (address, kind), preserving order — the form in which races are printed.
func DedupRaces(rs []Race) []Race { return race.DedupByAddr(rs) }

// Replay (§6.1 two-run reference identification).
type (
	// SyncRecord records run 1's per-lock tenure order via Config.Tracer.
	SyncRecord = replay.SyncRecord
	// SiteCollector captures run 2's racing call sites via Config.Tracer.
	SiteCollector = replay.SiteCollector
	// AccessSite is one captured racing instruction.
	AccessSite = replay.AccessSite
)

// NewSyncRecord returns an empty synchronization-order record.
func NewSyncRecord() *SyncRecord { return replay.NewSyncRecord() }

// NewSiteCollector watches one shared address during a replay run.
func NewSiteCollector(addr Addr) *SiteCollector { return replay.NewSiteCollector(addr) }

// Post-mortem tracing (the §7 baseline the online approach obsoletes).
type (
	// TraceWriter logs every access and synchronization event; attach it
	// via Config.Tracer.
	TraceWriter = trace.Writer
)

// NewTraceWriter starts a trace log on w for an nprocs-process run.
func NewTraceWriter(w io.Writer, nprocs int) (*TraceWriter, error) {
	return trace.NewWriter(w, nprocs)
}

// AnalyzeTrace replays a trace log through the happens-before detector and
// returns the racy addresses — the post-mortem pipeline in one call.
func AnalyzeTrace(r io.Reader) ([]Addr, error) { return trace.Analyze(r) }

// Observability (internal/telemetry): the structured protocol-event
// tracer, metrics registry, and flight recorder.
type (
	// TelemetryConfig configures a run's event recorder; set it via
	// ExperimentConfig.Telemetry, or build the recorder yourself with
	// NewTelemetryRecorder and set Config.Recorder for a raw System.Run.
	// The recorder exports Chrome trace-event JSON
	// (WriteChromeTrace), Prometheus text (Metrics().WriteProm), and flight
	// dumps (DumpFlight).
	TelemetryConfig = telemetry.Config
	// TelemetryRecorder is one recording session.
	TelemetryRecorder = telemetry.Recorder
	// MetricsRegistry holds counters/gauges/histograms.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a registry frozen for JSON serialization; it
	// subsumes dsm.Stats and simnet.Stats for harness runs.
	MetricsSnapshot = telemetry.Snapshot
)

// NewTelemetryRecorder builds a recorder (telemetry.New). Set it as
// Config.Recorder or ExperimentConfig.Recorder and keep the handle while
// the run executes — a live metrics endpoint can then scrape
// Metrics().WriteProm mid-run. Each run records only into its own handle,
// so any number of runs record concurrently in one process without
// cross-talk.
func NewTelemetryRecorder(cfg TelemetryConfig) *TelemetryRecorder { return telemetry.New(cfg) }

// Reference detector (cross-validation).
type (
	// HBDetector is a classic vector-clock happens-before detector that
	// can be attached to a run via Config.Tracer.
	HBDetector = hbdet.Detector
)

// NewHBDetector returns a happens-before reference detector for n procs.
func NewHBDetector(n int) *HBDetector { return hbdet.New(n) }

// Experiments.
type (
	// ExperimentConfig describes one harness run. Its App picks the
	// engine: one of the GoWorkloads runs on the Go-native frontend and
	// takes no DSM settings; any other app runs on the DSM, and its DSM
	// field is the Config the run's System is built from, minus what the
	// harness derives (NumProcs, SharedSize, Detect, Recorder):
	//
	//	lrcrace.ExperimentConfig{
	//		App: "Water", Procs: 4, Detect: true,
	//		DSM: lrcrace.Config{Protocol: lrcrace.MultiWriter, FirstOnly: true},
	//	}
	ExperimentConfig = harness.RunConfig
	// ExperimentResult carries a run's metrics. Its Sys is stats-only: the
	// run has handed its page frames back (System.Close), so Sys answers
	// Races, ExplainRace, SymbolAt and the statistics, and SnapshotWord on
	// it panics.
	ExperimentResult = harness.Result
	// Suite caches baseline/detection pairs and prints the paper's tables.
	Suite = harness.Suite
)

// RunExperiment executes one benchmark configuration, verifies the
// application's result and closes the run's System, returning its page
// frames to the pool for the next run.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	return harness.Run(cfg)
}

// NewSuite builds a table-generation suite (scale 0 → 1, procs 0 → 8).
func NewSuite(scale float64, procs int) *Suite { return harness.NewSuite(scale, procs) }

// WriteTable2 prints the paper's Table 2 (static instrumentation
// statistics); it needs no runs.
func WriteTable2(w io.Writer) { harness.Table2(w) }

// Apps lists the paper's four benchmark applications, in its table order.
func Apps() []string { return append([]string(nil), harness.AppNames...) }

// Go-native frontend (internal/gofront, docs/GOFRONT.md): the same
// interval/vector-clock detector applied to Go concurrency primitives —
// goroutines, channels, mutexes, wait groups — instead of DSM pages.
// Name one of the GoWorkloads as ExperimentConfig.App to run on it; the
// run's result comes back in ExperimentResult.GoFront.
type (
	// GoFrontResult is a go-frontend run's outcome: race reports, racy
	// address set and detector stats. Only test binaries record its
	// replayable sync/access trace.
	GoFrontResult = gofront.Result
	// GoFrontStats are the frontend's work counters (intervals built,
	// pairs examined, bitmaps compared, records GCed, ...).
	GoFrontStats = gofront.Stats
)

// GoWorkloads lists the registered go-frontend workloads (KV, Sessions).
func GoWorkloads() []string { return gofront.Workloads() }

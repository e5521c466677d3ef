// Package harness runs the benchmark applications on the DSM under
// controlled configurations and derives every metric the paper's evaluation
// reports: Table 1 (application characteristics and slowdown), Table 2
// (static instrumentation statistics), Table 3 (dynamic metrics), Figure 3
// (overhead breakdown) and Figure 4 (slowdown versus processors).
package harness

import (
	"fmt"
	"time"

	"lrcrace/internal/apps"
	"lrcrace/internal/costmodel"
	"lrcrace/internal/dsm"
	"lrcrace/internal/gofront"
	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/race"
	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"

	// Register the four benchmark applications and the go-frontend
	// workload family.
	_ "lrcrace/internal/apps/fft"
	_ "lrcrace/internal/apps/kv"
	_ "lrcrace/internal/apps/sor"
	_ "lrcrace/internal/apps/tsp"
	_ "lrcrace/internal/apps/water"
)

// DSM names dsm.Config inside RunConfig: embedding the alias makes the
// field cfg.DSM while its fields still read as cfg.Protocol, cfg.Faults, ...
type DSM = dsm.Config

// RunConfig describes one experiment run: what to run and how big, plus
// the DSM configuration to run it on. Every DSM knob is a field of the
// embedded DSM, stated once there. The harness derives NumProcs,
// SharedSize, PageSize, Detect, Crashes, Corruption and Recorder, so those
// stay zero in DSM; a go-frontend run takes no DSM settings at all. Check
// a RunConfig with ValidateRunConfig: the promoted DSM.Validate sees only
// the DSM half.
type RunConfig struct {
	// App names what to run, and so the engine that runs it: a benchmark
	// ("FFT", "SOR", "TSP", "Water") or chaos app runs on the simulated
	// DSM; a registered gofront workload ("KV", "Sessions") runs as a
	// Go-native program under the gofront happens-before frontend
	// (goroutines, channels, and locks translated to interval-based
	// detection), with Procs as the client count. See docs/GOFRONT.md.
	App   string
	Scale float64 // problem scale; 0 → 1 (laptop default)
	Procs int
	// HotKeySkew is the go-frontend hot-key probability in [0,1).
	HotKeySkew float64
	// Racy plants the go-frontend workload's racy fast path.
	Racy bool
	// OpsPerClient overrides the go-frontend per-client op count (0 → the
	// workload default scaled by Scale).
	OpsPerClient int
	// Seed drives the go-frontend scheduler and traffic PRNGs, and the
	// chaos apps' seed-derived crash and corruption plans.
	Seed   int64
	Detect bool
	// DSM configures the simulated DSM.
	DSM
	// CrashMode selects deterministic crash injection for the chaos
	// applications ("ChaosTSP", "ChaosMW"): "" or "none" (off), "single",
	// "double" (two victims), "recovery" (second crash arms only during
	// recovery). Non-chaos apps are whole-program bodies and cannot
	// recover, so crash modes are rejected for them.
	CrashMode string
	// CorruptMode attacks stored checkpoint chunks once the crash epoch's
	// line is complete: "" or "none" (off), "chunk" (bit-flip), "delete"
	// (drop payload). Requires a CrashMode so recovery exercises the
	// verify-then-fallback path.
	CorruptMode string
	// Telemetry, when non-nil, builds a handle-scoped telemetry recorder
	// for the run (Procs defaults to the run's process count). The recorder
	// is private to this run — concurrent Runs in one process do not share
	// rings or metrics — and is available as Result.Telemetry; its metrics
	// registry additionally receives the run's raw counters (FillMetrics).
	Telemetry *telemetry.Config
	// Recorder, when non-nil, supplies a pre-built recorder (telemetry.New)
	// instead of having Run build one from Telemetry. The caller keeps the
	// handle for the whole run, which is what lets a live /metrics endpoint
	// scrape a run in flight. Takes precedence over Telemetry.
	Recorder *telemetry.Recorder
}

// Result collects everything a run produced.
type Result struct {
	Cfg   RunConfig
	App   apps.App
	Sys   *dsm.System
	Model costmodel.Model

	VirtualNS int64
	WallNS    int64
	Races     []race.Report
	Det       race.Stats
	Net       simnet.Stats
	Procs     []dsm.Stats
	MemBytes  int

	// Checkpoint and Recovery summarize the run's crash-tolerance costs:
	// how many barrier-epoch checkpoints were serialized and how large, and
	// what any coordinated rollbacks cost in re-executed virtual time and
	// restore wall time. Zero-valued only when RunConfig.DSM.NoCheckpoint
	// disabled the layer.
	Checkpoint dsm.CheckpointStats
	Recovery   dsm.RecoveryStats

	// Telemetry is the run's stopped recorder when RunConfig.Telemetry was
	// set (its metrics registry already includes the run's raw counters).
	Telemetry *telemetry.Recorder

	// GoFront is the go-frontend result when RunConfig.App named a gofront
	// workload; Sys, Model, Det, Net, and Procs stay zero-valued for such
	// runs.
	GoFront *gofront.Result
}

// Run executes one configuration and verifies the application result.
func Run(cfg RunConfig) (*Result, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	app, dc, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	if gofront.IsWorkload(cfg.App) {
		return runGoFront(cfg)
	}
	dc.Recorder = recorderFor(cfg, cfg.Procs)
	sys, err := dsm.New(dc)
	if err != nil {
		return nil, err
	}
	if IsChaosApp(cfg.App) {
		return runChaos(cfg, sys)
	}
	if err := app.Setup(sys); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := sys.Run(app.Worker); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	if err := app.Verify(sys); err != nil {
		return nil, fmt.Errorf("harness: %s failed verification: %w", cfg.App, err)
	}
	return newResult(cfg, app, sys, wall), nil
}

// recorderFor returns the run's telemetry recorder: the caller's handle
// when cfg.Recorder is set, one built from cfg.Telemetry (with procs rings
// unless the config sizes them) otherwise, nil when neither is set.
func recorderFor(cfg RunConfig, procs int) *telemetry.Recorder {
	if cfg.Recorder != nil || cfg.Telemetry == nil {
		return cfg.Recorder
	}
	tc := *cfg.Telemetry
	if tc.Procs == 0 {
		tc.Procs = procs
	}
	return telemetry.New(tc)
}

// dsmConfig is the one RunConfig → dsm.Config conversion: every DSM run —
// benchmark or chaos app, executed or merely validated — builds its System
// from what this returns (plus the recorder): cfg.DSM with the fields the
// harness derives filled in. The chaos apps run on a few small pages with
// the crash and corruption plans their modes name.
func dsmConfig(cfg RunConfig, sharedSize int) (dsm.Config, error) {
	dc := cfg.DSM
	dc.NumProcs, dc.SharedSize, dc.Detect = cfg.Procs, sharedSize, cfg.Detect
	if !IsChaosApp(cfg.App) {
		return dc, nil
	}
	dc.PageSize = chaosPageSize
	var err error
	dc.Crashes, dc.Corruption, err = chaosPlans(cfg)
	return dc, err
}

// newResult collects what a finished DSM run produced; app is nil for the
// chaos apps.
func newResult(cfg RunConfig, app apps.App, sys *dsm.System, wall time.Duration) *Result {
	res := &Result{
		Cfg:       cfg,
		App:       app,
		Sys:       sys,
		Model:     costmodel.Default(),
		VirtualNS: sys.VirtualTime(),
		WallNS:    wall.Nanoseconds(),
		Races:     sys.Races(),
		Det:       sys.DetectorStats(),
		Net:       sys.NetStats(),
		MemBytes:  sys.AllocBytes(),

		Checkpoint: sys.CheckpointStats(),
		Recovery:   sys.RecoveryStats(),
	}
	for _, p := range sys.Procs() {
		res.Procs = append(res.Procs, p.Stats())
	}
	if rec := sys.Config().Recorder; rec != nil {
		res.Telemetry = rec
		res.FillMetrics(rec.Metrics())
	}
	return res
}

// Pair runs the same configuration with detection off (baseline) and on.
func Pair(cfg RunConfig) (base, det *Result, err error) {
	cfg.Detect = false
	if base, err = Run(cfg); err != nil {
		return nil, nil, err
	}
	cfg.Detect = true
	if det, err = Run(cfg); err != nil {
		return nil, nil, err
	}
	return base, det, nil
}

// Slowdown is the virtual-time ratio detected/baseline.
func Slowdown(base, det *Result) float64 {
	return float64(det.VirtualNS) / float64(base.VirtualNS)
}

// IntervalsPerBarrier is the average number of interval structures created
// per process per barrier epoch (Table 1, "Intervals Per Barrier").
func (r *Result) IntervalsPerBarrier() float64 {
	var intervals, barriers int64
	for _, st := range r.Procs {
		intervals += st.IntervalsCreated
		barriers += st.Barriers
	}
	if barriers == 0 {
		return 0
	}
	return float64(intervals) / float64(barriers)
}

// IntervalsUsedPct is the fraction of intervals involved in at least one
// concurrent overlapping pair (Table 3 column 1).
func (r *Result) IntervalsUsedPct() float64 {
	if r.Det.IntervalsTotal == 0 {
		return 0
	}
	return 100 * float64(r.Det.IntervalsInvolved) / float64(r.Det.IntervalsTotal)
}

// BitmapsUsedPct is the fraction of access bitmaps that had to be retrieved
// for comparison (Table 3 column 2).
func (r *Result) BitmapsUsedPct() float64 {
	var created, sent int64
	for _, st := range r.Procs {
		created += st.BitmapsCreated
		sent += st.BitmapsSent
	}
	if created == 0 {
		return 0
	}
	return 100 * float64(sent) / float64(created)
}

// MsgOverheadPct is the bandwidth added by read notices, relative to all
// other traffic the system sends — page fetches included (Table 3 column
// 3: page-heavy applications like SOR dilute the notices to ~1%, while
// fine-grained-synchronization Water pays ~48%). The bitmap round is
// accounted under the Bitmaps overhead, not here.
func (r *Result) MsgOverheadPct() float64 {
	var rn int64
	for _, st := range r.Procs {
		rn += st.ReadNoticeBytes
	}
	_, bm := r.bitmapRound()
	rest := r.Net.TotalBytes() - bm - rn
	if rest <= 0 {
		return 0
	}
	return 100 * float64(rn) / float64(rest)
}

// bitmapRound sums the wire messages and bytes of the detector's extra
// barrier round: bitmap replies, shard-result reductions (sharded check
// only) and done messages.
func (r *Result) bitmapRound() (msgs, bytes int64) {
	for _, t := range []msg.Type{msg.TBitmapReply, msg.TShardResult, msg.TBarrierDone} {
		msgs += r.Net.Messages[t]
		bytes += r.Net.Bytes[t]
	}
	return msgs, bytes
}

// AccessRates returns instrumented shared and private accesses per virtual
// second (Table 3 columns 4–5).
func (r *Result) AccessRates() (shared, private float64) {
	var sh, pr int64
	for _, st := range r.Procs {
		sh += st.SharedReads + st.SharedWrites
		pr += st.PrivateAccesses
	}
	secs := float64(r.VirtualNS) / 1e9
	if secs == 0 {
		return 0, 0
	}
	return float64(sh) / secs, float64(pr) / secs
}

// Overheads is the Figure 3 decomposition, each component as a percentage
// of the baseline (uninstrumented) virtual runtime.
type Overheads struct {
	CVMMods, ProcCall, AccessCheck, Intervals, Bitmaps float64
}

// Total returns the summed component overhead percentage.
func (o Overheads) Total() float64 {
	return o.CVMMods + o.ProcCall + o.AccessCheck + o.Intervals + o.Bitmaps
}

// Breakdown computes the overhead components of det relative to base.
// Per-access instrumentation accrues in parallel on every process (averaged
// per process); interval and bitmap comparison are serialized at the master
// and charged in full; the read-notice bandwidth and the extra barrier
// round are charged as wire time.
func Breakdown(base, det *Result) Overheads {
	n := float64(len(det.Procs))
	bt := float64(base.VirtualNS)
	m := det.Model

	var procCall, accessCheck, cvmMods, readNoticeBytes int64
	var intervalCmp, bitmapCmp int64
	for _, st := range det.Procs {
		procCall += st.TProcCall
		accessCheck += st.TAccessCheck
		cvmMods += st.TCVMMods
		readNoticeBytes += st.ReadNoticeBytes
		intervalCmp += st.TIntervalCmp
		bitmapCmp += st.TBitmapCmp
	}
	bmMsgs, bmBytes := det.bitmapRound()
	bmWire := float64(bmBytes)*m.PerByte + float64(bmMsgs*m.MsgLatency)/n

	o := Overheads{
		ProcCall:    100 * float64(procCall) / n / bt,
		AccessCheck: 100 * float64(accessCheck) / n / bt,
		CVMMods:     100 * (float64(cvmMods)/n + float64(readNoticeBytes)*m.PerByte/n) / bt,
		Intervals:   100 * float64(intervalCmp) / bt,
		Bitmaps:     100 * (float64(bitmapCmp) + bmWire) / bt,
	}
	return o
}

// RacyVariables maps the detected races to shared-variable names via the
// symbol table, deduplicated, preserving first-report order.
func (r *Result) RacyVariables() []string {
	seen := map[string]bool{}
	var out []string
	for _, rep := range race.DedupByAddr(r.Races) {
		if name := r.VarName(rep.Addr); !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// VarName names the shared variable at a through the run's symbol table —
// the DSM's or the go frontend's — or spells the address when no symbol
// covers it.
func (r *Result) VarName(a mem.Addr) string {
	if r.GoFront != nil {
		if sym, ok := r.GoFront.SymbolAt(a); ok {
			return sym
		}
	} else if sym, ok := r.Sys.SymbolAt(a); ok {
		return sym.Name
	}
	return fmt.Sprintf("0x%x", uint64(a))
}

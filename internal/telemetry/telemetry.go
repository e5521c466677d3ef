// Package telemetry is the observability subsystem of the simulated
// cluster: a structured protocol-event tracer, a metrics registry with
// Prometheus-style exposition, and a flight recorder that dumps the most
// recent events when something goes wrong (reliable-layer retry-cap
// exhaustion, barrier timeout, process panic).
//
// The paper's evaluation is itself an observability exercise — Table 3
// attributes wire bandwidth, Figure 3 decomposes overhead — but the seed
// reproduction scattered those numbers across ad-hoc counters. This package
// gives every layer (dsm coherence handlers, the simnet fault injector, the
// reliable retransmission sublayer) one typed event pipeline and one
// metrics registry, in the low-intrusiveness spirit of Ronsse & De
// Bosschere's non-intrusive tracing: when recording is off, an event site
// costs exactly one nil check.
//
// Events are recorded into per-process ring buffers with both virtual
// (costmodel) and wall timestamps. Exporters include Chrome trace-event
// JSON (see WriteChromeTrace), which renders a run as a per-process cluster
// timeline in Perfetto or chrome://tracing.
//
// A Recorder is a handle, never installed process-wide: New builds one,
// and it records only what is threaded to it (dsm.Config.Recorder, or a
// Scope built with To), so N recording sessions coexist in one process
// without interleaving rings, sequence numbers, or metric registries — the
// property the sweep orchestrator (internal/sweep) depends on to run a grid
// of Systems concurrently. Event sites take a Scope; the zero Scope is off.
//
// The package deliberately imports only the standard library so that any
// layer of the system can instrument itself without dependency cycles.
package telemetry

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the type of one protocol event. Args A, B, C are kind-specific;
// the table below documents them.
type Kind uint8

const (
	// KPageFault: a protection fault on the local copy. A=page, B=1 write.
	KPageFault Kind = iota
	// KPageFetch: a remote page copy arrived and was applied.
	// A=page, B=source proc, C=fetch latency (virtual ns).
	KPageFetch
	// KOwnershipXfer: this proc served a write fault and gave up
	// single-writer ownership. A=page, B=new owner.
	KOwnershipXfer
	// KLockRequest: the app thread asked the manager for a lock. A=lock.
	KLockRequest
	// KLockForward: the manager forwarded a request along the lock chain.
	// A=lock, B=requester, C=last holder it was sent to.
	KLockForward
	// KLockGrant: a grant was sent to the next tenure.
	// A=lock, B=requester, C=interval records carried.
	KLockGrant
	// KLockAcquired: the grant arrived at the requester.
	// A=lock, B=granter, C=wait (virtual ns).
	KLockAcquired
	// KLockRelease: the holder released. A=lock.
	KLockRelease
	// KBarrierArrive: a proc reached the barrier. A=epoch.
	KBarrierArrive
	// KBarrierRelease: the master released an epoch (master only).
	// A=epoch, B=interval records broadcast, C=arrival skew (virtual ns).
	KBarrierRelease
	// KBarrierDepart: a proc left the barrier. A=epoch, C=wait (virtual ns).
	KBarrierDepart
	// KIntervalClose: an interval record was materialized.
	// A=interval index, B=#write notices, C=#read notices.
	KIntervalClose
	// KRaceCheck: the master ran the bitmap comparison pass (master only).
	// A=check-list entries, B=bitmaps compared, C=races found.
	KRaceCheck
	// KRaceFound: one dynamic race report. A=address, B=epoch, C=1 if
	// write-write.
	KRaceFound
	// KDiffFlush: a twinned page's diff was flushed home. A=page, B=words.
	KDiffFlush
	// KRetransmit: a reliable-sublayer retransmission deadline resent a
	// link's unacked envelopes. A=dest proc, B=envelopes resent, C=retry
	// round.
	KRetransmit
	// KLinkDead: a link exhausted its retry cap and the transport shut
	// down. A=dest proc, B=unacked envelopes, C=retry cap.
	KLinkDead
	// KWireDrop: the fault injector discarded a message. A=dest, B=msg type.
	KWireDrop
	// KWireDup: the fault injector duplicated a message. A=dest, B=msg type.
	KWireDup
	// KWireReorder: the fault injector held a message back. A=dest, B=msg type.
	KWireReorder
	// KCheckpoint: a process serialized its recovery state at a barrier
	// departure. A=epoch, B=manifest bytes, C=logical (full-serialization)
	// bytes including chunk payloads.
	KCheckpoint
	// KCrashInjected: the crash plan killed a process. A=crash point
	// (dsm.CrashPoint), B=victim proc.
	KCrashInjected
	// KCrashDetected: a survivor concluded a peer is dead. A=suspected proc
	// (-1 unknown), B=1 if detected via link death, 0 via barrier timeout.
	KCrashDetected
	// KRecoveryStart: the driver began coordinated rollback. A=epoch being
	// rolled back to, B=victim proc.
	KRecoveryStart
	// KRecoveryDone: rollback finished and re-execution resumed.
	// A=epoch, B=virtual ns rolled back, C=wall ns spent restoring.
	KRecoveryDone
	// KLockReclaim: a lock last held by the crashed proc was reclaimed by
	// its manager during restore. A=lock, B=dead holder.
	KLockReclaim
	// KShardCompare: a shard owner compared the bitmaps of its check-list
	// shard (sharded race check). A=shard check entries, B=bitmaps
	// compared, C=comparison work (virtual ns).
	KShardCompare
	// KShardReduce: a process forwarded its subtree's merged shard results
	// up the binary reduction tree. A=epoch, B=reports forwarded,
	// C=tree children merged.
	KShardReduce
	// KCkptChunk: one checkpoint encode's chunk-store activity. A=chunks
	// referenced, B=chunks deduplicated against resident ones, C=bytes
	// stored fresh.
	KCkptChunk
	// KCkptGC: checkpoint retention GC retired superseded epochs.
	// A=manifests retired, B=resident bytes released.
	KCkptGC
	// KCkptVerifyFail: a candidate recovery line was rejected because a
	// checkpoint manifest or its chunk closure failed verification; the
	// rollback fell back one epoch. A=rejected epoch.
	KCkptVerifyFail
	// KCkptCorrupt: the corruption plan damaged stored checkpoint chunks.
	// A=target epoch, B=chunks attacked, C=mode (dsm.CorruptMode).
	KCkptCorrupt
	// KTreeReduce: a combining-tree barrier node finished its subtree
	// reduction and forwarded it to its tree parent. A=epoch, B=interval
	// records merged, C=partial check-list build work (virtual ns).
	KTreeReduce
	// KTreeRelease: a process received the combining-tree release (one hop
	// of the downward cascade). A=epoch, B=tree children it was forwarded to.
	KTreeRelease
	// KGoSync: a gofront synchronization operation committed (goroutine
	// frontend). Proc=goroutine, A=op code (gofront.Op), B=object id,
	// C=interval index closed by the op.
	KGoSync
	// KGoCheck: the gofront detector checked a newly closed interval
	// against the retained concurrent history. A=pairs examined,
	// B=bitmaps compared, C=race reports produced.
	KGoCheck

	numKinds
)

var kindNames = [numKinds]string{
	KPageFault:      "PageFault",
	KPageFetch:      "PageFetch",
	KOwnershipXfer:  "OwnershipXfer",
	KLockRequest:    "LockRequest",
	KLockForward:    "LockForward",
	KLockGrant:      "LockGrant",
	KLockAcquired:   "LockAcquired",
	KLockRelease:    "LockRelease",
	KBarrierArrive:  "BarrierArrive",
	KBarrierRelease: "BarrierRelease",
	KBarrierDepart:  "BarrierDepart",
	KIntervalClose:  "IntervalClose",
	KRaceCheck:      "RaceCheck",
	KRaceFound:      "RaceFound",
	KDiffFlush:      "DiffFlush",
	KRetransmit:     "Retransmit",
	KLinkDead:       "LinkDead",
	KWireDrop:       "WireDrop",
	KWireDup:        "WireDup",
	KWireReorder:    "WireReorder",
	KCheckpoint:     "Checkpoint",
	KCrashInjected:  "CrashInjected",
	KCrashDetected:  "CrashDetected",
	KRecoveryStart:  "RecoveryStart",
	KRecoveryDone:   "RecoveryDone",
	KLockReclaim:    "LockReclaim",
	KShardCompare:   "ShardCompare",
	KShardReduce:    "ShardReduce",
	KCkptChunk:      "CkptChunk",
	KCkptGC:         "CkptGC",
	KCkptVerifyFail: "CkptVerifyFail",
	KCkptCorrupt:    "CkptCorrupt",
	KTreeReduce:     "TreeReduce",
	KTreeRelease:    "TreeRelease",
	KGoSync:         "GoSync",
	KGoCheck:        "GoCheck",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// TripReason classifies why the flight recorder dumped. Typed reasons make
// trips countable in metric snapshots (telemetry_trips_total{reason=...}),
// not just visible in stderr dumps.
type TripReason uint8

const (
	// TripLinkDead: a reliable link exhausted its retry cap.
	TripLinkDead TripReason = iota
	// TripBarrierTimeout: a reply wait (barrier release, page fetch, lock
	// grant, ...) exceeded the configured wall-clock deadline.
	TripBarrierTimeout
	// TripProcPanic: a DSM app goroutine panicked.
	TripProcPanic
	// TripProcCrash: a survivor detected a crashed peer process.
	TripProcCrash
	// TripCkptVerify: a stored checkpoint failed integrity verification
	// during rollback planning (corrupt or missing chunks).
	TripCkptVerify

	numTripReasons
)

var tripReasonNames = [numTripReasons]string{
	TripLinkDead:       "LinkDead",
	TripBarrierTimeout: "BarrierTimeout",
	TripProcPanic:      "ProcPanic",
	TripProcCrash:      "ProcCrash",
	TripCkptVerify:     "CkptVerify",
}

func (t TripReason) String() string {
	if int(t) < len(tripReasonNames) && tripReasonNames[t] != "" {
		return tripReasonNames[t]
	}
	return fmt.Sprintf("TripReason(%d)", uint8(t))
}

// Event is one recorded protocol event.
type Event struct {
	Seq  uint64 // global record order (monotonic across all rings)
	Proc int32  // emitting process; -1 = system/global
	Kind Kind
	VT   int64 // virtual (costmodel) timestamp, ns
	Wall int64 // wall-clock ns since the recorder started
	A    int64 // kind-specific args; see the Kind docs
	B    int64
	C    int64
}

// String renders the event for flight dumps and debugging.
func (e Event) String() string {
	who := fmt.Sprintf("p%d", e.Proc)
	if e.Proc < 0 {
		who = "sys"
	}
	return fmt.Sprintf("[%6d] %-3s vt=%-12d %-14s a=%d b=%d c=%d",
		e.Seq, who, e.VT, e.Kind, e.A, e.B, e.C)
}

// Config describes one Recorder.
type Config struct {
	// Procs is the number of per-process rings; 0 → 16. Events from procs
	// outside [0, Procs) land in a shared system ring.
	Procs int
	// Cap is the per-ring capacity in events; 0 → 8192, negative →
	// unbounded (tests that must see every event).
	Cap int
	// FlightN is how many trailing events a flight dump prints; 0 → 256.
	FlightN int
	// FlightSink receives flight-recorder dumps; nil → os.Stderr.
	FlightSink io.Writer
	// Observer, when non-nil, receives every recorded event synchronously
	// on the emitting goroutine, after the event has landed in its ring.
	// It is how a live consumer (the detection service's report store)
	// tails a recording session without polling the rings. Implementations
	// must be fast, safe for concurrent use, and must not call back into
	// the recorder.
	Observer func(Event)
	// TripObserver, when non-nil, receives every flight-recorder trip
	// (after the dump has been written to FlightSink), with the typed
	// reason and the free-form detail line. Same constraints as Observer.
	TripObserver func(reason TripReason, detail string)
}

func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 16
	}
	if c.Cap == 0 {
		c.Cap = 8192
	}
	if c.FlightN <= 0 {
		c.FlightN = 256
	}
	if c.FlightSink == nil {
		c.FlightSink = os.Stderr
	}
	return c
}

// ring is one bounded (or unbounded) event buffer.
type ring struct {
	mu      sync.Mutex
	cap     int // <= 0: unbounded
	buf     []Event
	next    int  // bounded: index of the next write
	wrapped bool // bounded: buf is full and next overwrites
	dropped uint64
}

func (r *ring) add(e Event) {
	r.mu.Lock()
	if r.cap <= 0 {
		r.buf = append(r.buf, e)
	} else if len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
		r.next = len(r.buf) % r.cap
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % r.cap
		r.wrapped = true
		r.dropped++
	}
	r.mu.Unlock()
}

// events returns the ring's contents in record order.
func (r *ring) events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapped {
		return append([]Event(nil), r.buf...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Recorder is one recording session: per-process rings, a metrics
// registry, and the flight-dump sink.
type Recorder struct {
	cfg     Config
	metrics *Registry // what event-derived metrics update
	start   time.Time
	seq     atomic.Uint64
	rings   []*ring // cfg.Procs + 1; the last is the system ring

	// Pre-resolved event-derived metrics (avoids registry lookups on the
	// emit path).
	evCount     [numKinds]*Counter
	tripCount   [numTripReasons]*Counter
	fetchHist   *Histogram
	barHist     *Histogram
	skewHist    *Histogram
	lockHist    *Histogram
	shardEnt    *Histogram
	shardCmp    *Histogram
	treeBuild   *Histogram
	treeReduces *Counter
	treeHops    *Counter
	ckptTotal   *Counter
	ckptBytes   *Counter
	ckptLogical *Counter
	chunkPuts   *Counter
	chunkHits   *Counter
	chunkBytes  *Counter
	verifyFails *Counter
	gcFreed     *Counter
	dedupRatio  *Gauge
	recTotal    *Counter
	recVirtual  *Counter
	recWall     *Counter
	recLocks    *Counter

	dumpMu sync.Mutex
	trips  atomic.Int64
}

// LatencyBuckets are the default histogram bounds for virtual-time
// latencies, in nanoseconds (50µs … 12.8ms; one wire hop is ~150µs).
var LatencyBuckets = []float64{
	50_000, 100_000, 200_000, 400_000, 800_000,
	1_600_000, 3_200_000, 6_400_000, 12_800_000,
}

// ShardSizeBuckets are the histogram bounds for per-shard check-list sizes
// (powers of two up to 256 entries).
var ShardSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// New builds a Recorder: a handle-scoped recording session. Events reach
// it only through a Scope bound with To (or a layer configured with the
// handle, e.g. dsm.Config.Recorder), so any number of recorders can record
// concurrently in one process.
func New(cfg Config) *Recorder {
	r := &Recorder{cfg: cfg.withDefaults(), metrics: NewRegistry(), start: time.Now()}
	r.rings = make([]*ring, r.cfg.Procs+1)
	for i := range r.rings {
		r.rings[i] = &ring{cap: r.cfg.Cap}
	}
	m := r.metrics
	for k := Kind(0); k < numKinds; k++ {
		r.evCount[k] = m.Counter("telemetry_events_total",
			"Protocol events recorded, by kind.", Label{"kind", k.String()})
	}
	r.fetchHist = m.Histogram("dsm_page_fetch_latency_ns",
		"Virtual-time latency of remote page fetches.", LatencyBuckets)
	r.barHist = m.Histogram("dsm_barrier_wait_ns",
		"Virtual time spent waiting at barriers, per process per epoch.", LatencyBuckets)
	r.skewHist = m.Histogram("dsm_barrier_skew_ns",
		"Spread of virtual arrival times within one barrier epoch.", LatencyBuckets)
	r.lockHist = m.Histogram("dsm_lock_wait_ns",
		"Virtual time from lock request to grant arrival.", LatencyBuckets)
	r.shardEnt = m.Histogram("dsm_check_shard_entries",
		"Check-list entries per shard comparison (sharded race check).", ShardSizeBuckets)
	r.shardCmp = m.Histogram("dsm_check_shard_compare_ns",
		"Virtual-time cost of one shard's bitmap comparison.", LatencyBuckets)
	r.treeBuild = m.Histogram("dsm_barrier_tree_reduce_build_ns",
		"Virtual-time cost of one tree node's partial check-list build.", LatencyBuckets)
	r.treeReduces = m.Counter("dsm_barrier_tree_reduces_total",
		"Subtree reductions forwarded up the combining-tree barrier.")
	r.treeHops = m.Counter("dsm_barrier_tree_hops_total",
		"Release-cascade hops delivered down the combining-tree barrier.")
	for t := TripReason(0); t < numTripReasons; t++ {
		r.tripCount[t] = m.Counter("telemetry_trips_total",
			"Flight-recorder trips, by reason.", Label{"reason", t.String()})
	}
	r.ckptTotal = m.Counter("dsm_checkpoint_total",
		"Barrier-epoch checkpoints taken.")
	r.ckptBytes = m.Counter("dsm_checkpoint_bytes_total",
		"Serialized bytes across all barrier-epoch checkpoints.")
	r.ckptLogical = m.Counter("dsm_ckpt_logical_bytes_total",
		"Bytes checkpoints would occupy fully serialized, without chunk dedup.")
	r.chunkPuts = m.Counter("dsm_ckpt_chunk_puts_total",
		"Chunk references written by checkpoint encodes.")
	r.chunkHits = m.Counter("dsm_ckpt_chunk_hits_total",
		"Chunk references deduplicated against already-resident chunks.")
	r.chunkBytes = m.Counter("dsm_ckpt_chunk_bytes_total",
		"Bytes of fresh (previously unseen) chunk payloads stored.")
	r.verifyFails = m.Counter("dsm_ckpt_verify_failures_total",
		"Checkpoint recovery lines rejected by integrity verification.")
	r.gcFreed = m.Counter("dsm_ckpt_gc_freed_bytes_total",
		"Resident bytes released by checkpoint retention GC.")
	r.dedupRatio = m.Gauge("dsm_ckpt_dedup_ratio",
		"Stored checkpoint bytes (manifests + fresh chunks) over logical bytes; lower is better dedup.")
	r.recTotal = m.Counter("dsm_recovery_total",
		"Coordinated rollback recoveries completed.")
	r.recVirtual = m.Counter("dsm_recovery_virtual_ns_total",
		"Virtual time rolled back by recoveries (work re-executed).")
	r.recWall = m.Counter("dsm_recovery_wall_ns_total",
		"Wall time spent tearing down and restoring during recoveries.")
	r.recLocks = m.Counter("dsm_recovery_locks_reclaimed_total",
		"Locks last held by a crashed process, reclaimed during restore.")
	return r
}

// Scope is a nil-safe handle directing one layer's events at a specific
// recording session. The zero Scope (and To(nil)) is off: events go
// nowhere at the cost of one nil check. Scopes are values; copy freely.
type Scope struct{ r *Recorder }

// To returns a Scope bound to r; To(nil) is the zero (off) Scope.
func To(r *Recorder) Scope { return Scope{r: r} }

// Emit records one typed event through the scope; a no-op costing one nil
// check when the scope is off.
func (s Scope) Emit(proc int, k Kind, vt int64, a, b, c int64) {
	if s.r == nil {
		return
	}
	s.r.emit(proc, k, vt, a, b, c)
}

// Trip triggers the scope's flight recorder (no-op when the scope is off).
// Layers call it at the moments the paper's user would want a core dump of
// the cluster: retry-cap exhaustion, barrier timeout, process panic, peer
// crash.
func (s Scope) Trip(reason TripReason, detail string) {
	if s.r != nil {
		s.r.Trip(reason, detail)
	}
}

// Trip dumps this recorder's flight buffer with the given typed reason and
// detail line, and counts the trip in telemetry_trips_total.
func (r *Recorder) Trip(reason TripReason, detail string) {
	r.trips.Add(1)
	if int(reason) < len(r.tripCount) && r.tripCount[reason] != nil {
		r.tripCount[reason].Add(1)
	}
	r.DumpFlight(r.cfg.FlightSink, fmt.Sprintf("%s: %s", reason, detail))
	if r.cfg.TripObserver != nil {
		r.cfg.TripObserver(reason, detail)
	}
}

// Trips returns how many flight dumps this recorder has produced.
func (r *Recorder) Trips() int64 { return r.trips.Load() }

func (r *Recorder) emit(proc int, k Kind, vt int64, a, b, c int64) {
	e := Event{
		Seq:  r.seq.Add(1),
		Proc: int32(proc),
		Kind: k,
		VT:   vt,
		Wall: int64(time.Since(r.start)),
		A:    a, B: b, C: c,
	}
	r.ring(proc).add(e)
	r.evCount[k].Add(1)
	switch k {
	case KPageFetch:
		r.fetchHist.Observe(float64(c))
	case KBarrierDepart:
		r.barHist.Observe(float64(c))
	case KBarrierRelease:
		r.skewHist.Observe(float64(c))
	case KLockAcquired:
		r.lockHist.Observe(float64(c))
	case KCheckpoint:
		r.ckptTotal.Add(1)
		r.ckptBytes.Add(b)
		r.ckptLogical.Add(c)
		r.updateDedupRatio()
	case KCkptChunk:
		r.chunkPuts.Add(a)
		r.chunkHits.Add(b)
		r.chunkBytes.Add(c)
		r.updateDedupRatio()
	case KCkptGC:
		r.gcFreed.Add(b)
	case KCkptVerifyFail:
		r.verifyFails.Add(1)
	case KRecoveryDone:
		r.recTotal.Add(1)
		r.recVirtual.Add(b)
		r.recWall.Add(c)
	case KLockReclaim:
		r.recLocks.Add(1)
	case KShardCompare:
		r.shardEnt.Observe(float64(a))
		r.shardCmp.Observe(float64(c))
	case KTreeReduce:
		r.treeBuild.Observe(float64(c))
		r.treeReduces.Add(1)
	case KTreeRelease:
		r.treeHops.Add(1)
	}
	if r.cfg.Observer != nil {
		r.cfg.Observer(e)
	}
}

// updateDedupRatio recomputes dsm_ckpt_dedup_ratio from the stored-bytes
// and logical-bytes counters: (manifests + fresh chunk payloads) over what
// full serialization would have written. 1.0 means no structural sharing;
// values approach 1/N when all N processes checkpoint identical pages.
func (r *Recorder) updateDedupRatio() {
	logical := r.ckptLogical.Value()
	if logical <= 0 {
		return
	}
	stored := r.ckptBytes.Value() + r.chunkBytes.Value()
	r.dedupRatio.Set(float64(stored) / float64(logical))
}

func (r *Recorder) ring(proc int) *ring {
	if proc < 0 || proc >= r.cfg.Procs {
		return r.rings[r.cfg.Procs]
	}
	return r.rings[proc]
}

// Procs returns the number of per-process rings.
func (r *Recorder) Procs() int { return r.cfg.Procs }

// Metrics returns the recorder's metrics registry.
func (r *Recorder) Metrics() *Registry { return r.metrics }

// Events returns every retained event across all rings in global record
// order (by sequence number). Bounded rings may have dropped older events;
// see Dropped.
func (r *Recorder) Events() []Event {
	var out []Event
	for _, rg := range r.rings {
		out = append(out, rg.events()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dropped returns how many events bounded rings have overwritten.
func (r *Recorder) Dropped() uint64 {
	var n uint64
	for _, rg := range r.rings {
		rg.mu.Lock()
		n += rg.dropped
		rg.mu.Unlock()
	}
	return n
}

// DumpFlight writes the last FlightN retained events (merged across rings,
// global record order) to w, prefixed by the reason — the "black box" read
// out after a failure.
func (r *Recorder) DumpFlight(w io.Writer, reason string) {
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	evs := r.Events()
	n := r.cfg.FlightN
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	fmt.Fprintf(w, "--- flight recorder: %s ---\n", reason)
	fmt.Fprintf(w, "last %d of %d retained events (%d overwritten):\n",
		len(evs), r.seq.Load(), r.Dropped())
	for _, e := range evs {
		fmt.Fprintln(w, e.String())
	}
	fmt.Fprintf(w, "--- end flight dump ---\n")
}

// Package service turns the one-shot detector into a long-running
// multi-tenant detection service: clients open sessions over HTTP, each
// session runs one DSM System (with its own handle-scoped telemetry
// recorder and always-on checkpoints) under admission control, and
// everything the detector reports — data races, crash recoveries,
// flight-recorder trips, session lifecycle — lands in an append-only
// report store that clients tail live with `since=<seq>` long-polls or
// SSE streams. The paper's detection is online ("races are reported
// immediately when they occur" at barrier time); this package makes the
// *consumption* online too, in the decoupled-monitoring spirit of Ronsse
// & De Bosschere: the monitored execution never waits for a subscriber.
//
// The service plane is also the dispatch target for distributed sweeps:
// `sweeprun -remote <addr>` submits each grid cell as a session and
// merges the returned results through the sweep's own manifest path (see
// Client and docs/SERVICE.md).
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"lrcrace/internal/castore"
	"lrcrace/internal/telemetry"
)

// RecordKind classifies one report-store record.
type RecordKind string

// Report-store record kinds.
const (
	// KindRace is one dynamic data-race report, appended the moment the
	// detector finds it at barrier time (telemetry KRaceFound).
	KindRace RecordKind = "race"
	// KindRecovery is a crash-tolerance event: a peer declared dead, a
	// coordinated rollback started or finished.
	KindRecovery RecordKind = "recovery"
	// KindTrip is a flight-recorder trip (link death, barrier timeout,
	// panic, checkpoint verification failure).
	KindTrip RecordKind = "trip"
	// KindSession marks session lifecycle: admitted, started, finished
	// (the Detail field says which, and with what terminal status).
	KindSession RecordKind = "session"
	// KindTruncated is synthesized by a reader when retention dropped
	// records between its cursor and the oldest retained record; Detail
	// carries how many were lost.
	KindTruncated RecordKind = "truncated"
)

// Record is one line of the append-only report store. Seq is assigned by
// the store, monotonically across all sessions; per-session views are
// subsequences of the merged view, so one cursor works for both.
type Record struct {
	Seq     uint64     `json:"seq"`
	Session string     `json:"session"`
	Kind    RecordKind `json:"kind"`
	// Tenant is the tenant the record's session belongs to; empty for
	// store-level records (truncation markers).
	Tenant string `json:"tenant,omitempty"`
	// VT is the virtual (costmodel) timestamp of the underlying protocol
	// event, when there is one.
	VT int64 `json:"vt,omitempty"`
	// Race fields (KindRace): the racing word's byte address, the barrier
	// epoch that exposed it, and whether both endpoints were writes.
	Addr       uint64 `json:"addr,omitempty"`
	Epoch      int64  `json:"epoch,omitempty"`
	WriteWrite bool   `json:"write_write,omitempty"`
	// Detail is the human-readable line for non-race kinds.
	Detail string `json:"detail,omitempty"`
}

// Store is the bounded append-only report log: records get monotonic
// sequence numbers starting at 1, retention keeps the most recent cap
// records (older ones are dropped, counted), and readers are cursors into
// it: Since is the only read path, and an attached reader (see Subscriber)
// adds nothing but a wake-up — a slow reader can never block an appender,
// only fall behind retention, which Since reports as an exact lost count.
//
// Readers see records up to the visible watermark only. A memory-only
// store moves it on every Append; a group-committing durable store (see
// OpenStore) moves it from its committer goroutine, after the fsync that
// put the records on disk.
type Store struct {
	mu      sync.Mutex
	cap     int
	recs    []Record // recs[0].Seq == first; contiguous
	first   uint64   // seq of recs[0]; 1 when nothing dropped yet
	next    uint64   // next seq to assign
	visible uint64   // highest seq readers may see; <= next-1
	subs    map[*Subscriber]struct{}
	m       storeMetrics
	// published is signalled (on mu) whenever visible advances.
	published *sync.Cond

	// Durability (nil log → memory-only store; see OpenStore). The log
	// holds the full append history, so retention bounds memory, not
	// replayable history.
	log *castore.SegLog

	// Group commit: while grouped, Append only writes and kicks the
	// committer, which fsyncs and publishes. Close closes quit (once),
	// waits for stopped, and clears grouped after its own final sync.
	grouped  bool
	kick     chan struct{}
	quit     chan struct{}
	stopped  chan struct{}
	stopOnce sync.Once
}

// storeMetrics are the store's series on the service's /metrics. The
// counters are the store's only copy of each count, incremented where the
// event happens; the gauges are read off the store at scrape time (collect).
type storeMetrics struct {
	records, subscribers, durable                          *telemetry.Gauge
	appended, dropped, replayed, truncations, persistFails *telemetry.Counter
	logSegments, logBytes, logFsyncs                       *telemetry.Gauge     // durable stores only
	commitRecords, fsyncSeconds                            *telemetry.Histogram // group-committing stores only
}

// Bucket bounds of the committer's two histograms: records made durable
// by one commit round, and its fsync's wall time in seconds.
var (
	commitRecordBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	fsyncSecondBuckets  = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1}
)

// DefaultStoreCap is the default retention bound, in records.
const DefaultStoreCap = 65536

// NewStore builds a store retaining at most cap records (0 →
// DefaultStoreCap).
func NewStore(cap int) *Store { return newStore(cap, telemetry.NewRegistry()) }

// newStore is NewStore publishing its series through reg. Registration
// order is exposition order.
func newStore(cap int, reg *telemetry.Registry) *Store {
	if cap <= 0 {
		cap = DefaultStoreCap
	}
	s := &Store{cap: cap, first: 1, next: 1, subs: make(map[*Subscriber]struct{}), m: storeMetrics{
		records:      reg.Gauge("svc_store_records", "Records currently retained by the report store."),
		appended:     reg.Counter("svc_store_appended_total", "Records ever appended to the report store."),
		dropped:      reg.Counter("svc_store_dropped_total", "Records discarded by report-store retention."),
		subscribers:  reg.Gauge("svc_subscribers", "Live report-store subscribers."),
		durable:      reg.Gauge("svc_store_durable", "1 when the report store persists to a segment log."),
		replayed:     reg.Counter("svc_store_replayed_total", "Records restored from the durable log at startup."),
		truncations:  reg.Counter("svc_store_truncations_total", "Corrupt log tails verified and cut off on replay."),
		persistFails: reg.Counter("svc_store_persist_failures_total", "Appends that failed to reach the durable log."),
	}}
	s.published = sync.NewCond(&s.mu)
	return s
}

// collect refreshes the store's gauges.
func (s *Store) collect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.records.Set(float64(len(s.recs)))
	s.m.subscribers.Set(float64(len(s.subs)))
	if s.log != nil {
		ls := s.log.Stats()
		s.m.logSegments.Set(float64(ls.Segments))
		s.m.logBytes.Set(float64(ls.DiskBytes))
		s.m.logFsyncs.Set(float64(ls.Fsyncs))
	}
}

// Append assigns the next sequence number to r, retains it, and writes it
// to the log when the store is durable. It never waits for an fsync: in a
// group-committing store the record becomes visible to readers, and
// Commit(r.Seq) returns, once the committer has made it durable; otherwise
// it is visible at once. Publishing wakes the attached readers it matches
// (a non-blocking signal; the record itself stays in the store). It
// returns the stored record.
func (s *Store) Append(r Record) Record {
	s.mu.Lock()
	r.Seq = s.next
	s.next++
	s.m.appended.Add(1)
	s.recs = append(s.recs, r)
	if len(s.recs) > s.cap {
		n := len(s.recs) - s.cap
		s.recs = s.recs[n:]
		s.first += uint64(n)
		s.m.dropped.Add(int64(n))
	}
	if s.log != nil {
		b, err := json.Marshal(r)
		if err == nil {
			_, err = s.log.Append(b)
		}
		if err != nil {
			// The in-memory store keeps serving; the failure is surfaced
			// through the svc_store_persist_failures metric rather than
			// taking the whole service plane down.
			s.m.persistFails.Add(1)
		}
	}
	if s.grouped {
		select {
		case s.kick <- struct{}{}:
		default: // a commit round is already due
		}
	} else {
		s.publishLocked(r.Seq)
	}
	s.mu.Unlock()
	return r
}

// publishLocked makes every record through upto visible: it advances the
// watermark, releases Commit waiters, and wakes the readers whose view
// grew.
func (s *Store) publishLocked(upto uint64) {
	if upto <= s.visible {
		return
	}
	from := s.visible
	s.visible = upto
	s.published.Broadcast()
	for sub := range s.subs {
		if sub.session == "" || s.holdsSessionLocked(sub.session, from, upto) {
			select {
			case sub.wake <- struct{}{}:
			default: // a wake-up is already pending
			}
		}
	}
}

// holdsSessionLocked reports whether a retained record in (from, upto]
// belongs to session.
func (s *Store) holdsSessionLocked(session string, from, upto uint64) bool {
	for seq := max(from+1, s.first); seq <= upto; seq++ {
		if s.recs[seq-s.first].Session == session {
			return true
		}
	}
	return false
}

// Commit blocks until record seq is visible: in a group-committing store,
// until it is on disk. The service calls it before acknowledging anything
// a record describes.
func (s *Store) Commit(seq uint64) {
	s.mu.Lock()
	for s.visible < seq {
		s.published.Wait()
	}
	s.mu.Unlock()
}

// commitLoop is the group-commit goroutine: each round fsyncs everything
// appended so far in one SegLog.Sync and publishes it. Appends that land
// during the fsync kick the next round, so under load one fsync covers
// every record written while the previous one ran.
func (s *Store) commitLoop() {
	defer close(s.stopped)
	for {
		select {
		case <-s.kick:
		case <-s.quit:
			return
		}
		s.mu.Lock()
		upto := s.next - 1 // Append writes under mu, so the log holds all of these
		s.mu.Unlock()
		start := time.Now()
		err := s.log.Sync()
		took := time.Since(start)
		s.mu.Lock()
		n := upto - s.visible
		if err != nil {
			// As with a failed write: count it and keep serving from memory
			// rather than wedge every reader.
			s.m.persistFails.Add(int64(n))
		}
		s.publishLocked(upto)
		s.mu.Unlock()
		s.m.commitRecords.Observe(float64(n))
		s.m.fsyncSeconds.Observe(took.Seconds())
	}
}

// ReplayInfo summarizes what OpenStore restored from its data directory.
type ReplayInfo struct {
	// Records replayed from the log into the store (memory retains at
	// most the store's cap; earlier records count as dropped, exactly as
	// they did before the restart).
	Records int
	// LastSeq is the highest restored sequence number; appends continue
	// at LastSeq+1 (or after the truncation record, when there is one).
	LastSeq uint64
	// Truncation describes a corrupt or torn log tail that was verified,
	// cut off, and surfaced as an explicit KindTruncated record; ""
	// when the log replayed clean.
	Truncation string
}

// OpenStore opens a durable report store over the content-addressed
// segment log in dir: every record ever appended is framed, hashed, and
// fsync'd, and on reopen the log is replayed — verifying each chunk
// against its address — so sequence numbers, session views, and reader
// cursors resume exactly where they stopped. opts.SyncEvery picks one of
// two modes: >= 0 group-commits (Append only writes; a committer
// goroutine fsyncs batches, and a record is visible once it is durable),
// negative fsyncs only on Close, with records visible at once. A tail
// that fails verification (tampered chunk, torn write, undecodable
// record, out-of-order sequence) is truncated at the last good record
// and surfaced as an explicit KindTruncated record carrying the next
// sequence number, never restored blindly and never a panic.
func OpenStore(dir string, cap int, opts castore.SegLogOptions) (*Store, ReplayInfo, error) {
	return openStore(dir, cap, opts, telemetry.NewRegistry())
}

// openStore is OpenStore publishing its series through reg.
func openStore(dir string, cap int, opts castore.SegLogOptions, reg *telemetry.Registry) (*Store, ReplayInfo, error) {
	s := newStore(cap, reg)
	expect := uint64(1)
	log, trunc, err := castore.OpenSegLog(dir, castore.SegLogOptions{SyncEvery: -1}, func(payload []byte) error {
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return fmt.Errorf("undecodable record: %w", err)
		}
		if r.Seq != expect {
			return fmt.Errorf("sequence break: record %d where %d was expected", r.Seq, expect)
		}
		expect++
		s.restore(r)
		return nil
	})
	if err != nil {
		return nil, ReplayInfo{}, fmt.Errorf("service: opening report store: %w", err)
	}
	s.log = log
	s.m.durable.Set(1)
	s.m.logSegments = reg.Gauge("svc_store_log_segments", "Segment files in the durable report log.")
	s.m.logBytes = reg.Gauge("svc_store_log_bytes", "Bytes across the durable report log's segments.")
	s.m.logFsyncs = reg.Gauge("svc_store_log_fsyncs_total", "fsync calls the durable report log has issued.")
	if opts.SyncEvery >= 0 {
		s.m.commitRecords = reg.Histogram("svc_store_commit_records",
			"Records the report store's committer made durable per commit round (at most one fsync).", commitRecordBuckets)
		s.m.fsyncSeconds = reg.Histogram("svc_store_fsync_seconds",
			"Wall time of one commit round's fsync of the report log.", fsyncSecondBuckets)
		s.grouped = true
		s.kick, s.quit, s.stopped = make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
		go s.commitLoop()
	}
	info := ReplayInfo{Records: int(expect - 1), LastSeq: expect - 1}
	if trunc != nil {
		s.m.truncations.Add(1)
		info.Truncation = trunc.String()
		r := s.Append(Record{Kind: KindTruncated,
			Detail: "report log truncated on replay: " + trunc.String()})
		s.Commit(r.Seq)
	}
	return s, info, nil
}

// restore re-adopts one replayed record without assigning a new sequence
// number or waking readers (none can exist during replay).
func (s *Store) restore(r Record) {
	s.recs = append(s.recs, r)
	s.next = r.Seq + 1
	s.visible = r.Seq
	s.m.appended.Add(1)
	s.m.replayed.Add(1)
	if len(s.recs) > s.cap {
		s.recs = s.recs[1:]
		s.first++
		s.m.dropped.Add(1)
	}
}

// Close stops the committer, then syncs and closes a durable store's log
// and publishes everything appended so far (appends after Close stay in
// memory, are visible at once, and count as persistence failures); a
// no-op for memory-only stores.
func (s *Store) Close() error {
	if s.quit != nil {
		s.stopOnce.Do(func() {
			close(s.quit)
			<-s.stopped
		})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.grouped = false
	s.publishLocked(s.next - 1)
	return err
}

// Since returns retained visible records with Seq > since, filtered to
// one session when session is non-empty, at most max of them (0 → no
// limit). lost is how many records between the cursor and the oldest
// retained one retention already dropped (the caller's cursor points into
// the dropped range); next is the store's current visible tail cursor —
// passing it back as since resumes exactly after the returned batch only
// when the batch was not truncated by max.
func (s *Store) Since(since uint64, session string, max int) (recs []Record, lost uint64, next uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// recs is contiguous from first, so the cursor is an index, not a scan.
	start := uint64(0)
	if since >= s.first {
		start = since - s.first + 1
	} else {
		lost = s.first - 1 - since
	}
	end := uint64(0) // recs[:end] are visible
	if s.visible >= s.first {
		end = s.visible - s.first + 1
	}
	start = min(start, end)
	for _, r := range s.recs[start:end] {
		if session != "" && r.Session != session {
			continue
		}
		recs = append(recs, r)
		if max > 0 && len(recs) == max {
			break
		}
	}
	next = since
	switch n := len(recs); {
	case n > 0:
		next = recs[n-1].Seq
	case lost > 0:
		// Past the hole, even where retention dropped records before they
		// were visible: a cursor handed back must not count them twice.
		next = s.first - 1
		if s.visible > next {
			next = s.visible
		}
	case s.visible > 0:
		next = s.visible
	}
	return recs, lost, next
}

// Len returns how many records the store currently retains.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Appended returns how many records have ever been appended.
func (s *Store) Appended() uint64 { return uint64(s.m.appended.Value()) }

// Dropped returns how many records retention has discarded.
func (s *Store) Dropped() uint64 { return uint64(s.m.dropped.Value()) }

// Subscribers returns how many readers are attached.
func (s *Store) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Subscriber is one reader of the store: a cursor plus a wake-up. No
// record travels through it — every batch is read from the store with
// Since(cursor), so delivery is exactly-once and in sequence order by
// construction, and a reader that falls behind retention learns exactly how
// much it lost. Append only signals the wake channel, without blocking, so
// a slow reader never holds up an appender. The cursor belongs to the one
// goroutine that calls Next.
type Subscriber struct {
	store   *Store
	session string        // "" reads the merged view
	wake    chan struct{} // capacity 1: "the view grew since your last read"
	last    uint64        // cursor: Seq of the last record delivered
}

// Subscribe attaches a reader of one session ("" for the merged view)
// whose cursor starts after sequence number since. Close it when done.
func (s *Store) Subscribe(session string, since uint64) *Subscriber {
	sub := &Subscriber{store: s, session: session, wake: make(chan struct{}, 1), last: since}
	s.mu.Lock()
	s.subs[sub] = struct{}{}
	s.mu.Unlock()
	return sub
}

// poll is the one read loop every consumer shares: Since(cursor), and when
// that is empty wait for Append's wake-up (or ctx) and read again. The
// results are Since's; the cursor advances past them — past the batch, or
// past the lost range when retention dropped everything the reader had not
// seen yet.
func (sub *Subscriber) poll(ctx context.Context, max int) (recs []Record, lost, next uint64, err error) {
	for {
		recs, lost, next = sub.store.Since(sub.last, sub.session, max)
		if len(recs) > 0 {
			sub.last = next
			return recs, lost, next, nil
		}
		if lost > 0 {
			sub.last += lost
			return nil, lost, next, nil
		}
		select {
		case <-sub.wake:
		case <-ctx.Done():
			return nil, 0, next, ctx.Err()
		}
	}
}

// Next blocks until the store holds records after the cursor and returns
// them in sequence order, each exactly once across calls. When retention
// dropped records the reader had not seen, the batch starts with one
// synthesized KindTruncated record standing in for the hole: its Seq is
// the last lost sequence number and its Detail the exact count. The error
// is ctx's, when it ends first.
func (sub *Subscriber) Next(ctx context.Context) ([]Record, error) {
	before := sub.last
	recs, lost, _, err := sub.poll(ctx, 0)
	if lost > 0 {
		recs = append([]Record{{Seq: before + lost, Session: sub.session, Kind: KindTruncated,
			Detail: fmt.Sprintf("%d records dropped by store retention", lost)}}, recs...)
	}
	return recs, err
}

// Close detaches the reader from the store. Safe to call twice.
func (sub *Subscriber) Close() {
	sub.store.mu.Lock()
	delete(sub.store.subs, sub)
	sub.store.mu.Unlock()
}

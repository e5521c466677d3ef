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
type Store struct {
	mu    sync.Mutex
	cap   int
	recs  []Record // recs[0].Seq == first; contiguous
	first uint64   // seq of recs[0]; 1 when nothing dropped yet
	next  uint64   // next seq to assign
	subs  map[*Subscriber]struct{}
	m     storeMetrics

	// Durability (nil log → memory-only store; see OpenStore). The log
	// holds the full append history, so retention bounds memory, not
	// replayable history.
	log        *castore.SegLog
	persistErr error // first persistence failure, kept for diagnostics
}

// storeMetrics are the store's series on the service's /metrics. The
// counters are the store's only copy of each count, incremented where the
// event happens; the gauges are read off the store at scrape time (collect).
type storeMetrics struct {
	records, subscribers, durable                          *telemetry.Gauge
	appended, dropped, replayed, truncations, persistFails *telemetry.Counter
	logSegments, logBytes, logFsyncs                       *telemetry.Gauge // durable stores only
}

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
	return &Store{cap: cap, first: 1, next: 1, subs: make(map[*Subscriber]struct{}), m: storeMetrics{
		records:      reg.Gauge("svc_store_records", "Records currently retained by the report store."),
		appended:     reg.Counter("svc_store_appended_total", "Records ever appended to the report store."),
		dropped:      reg.Counter("svc_store_dropped_total", "Records discarded by report-store retention."),
		subscribers:  reg.Gauge("svc_subscribers", "Live report-store subscribers."),
		durable:      reg.Gauge("svc_store_durable", "1 when the report store persists to a segment log."),
		replayed:     reg.Counter("svc_store_replayed_total", "Records restored from the durable log at startup."),
		truncations:  reg.Counter("svc_store_truncations_total", "Corrupt log tails verified and cut off on replay."),
		persistFails: reg.Counter("svc_store_persist_failures_total", "Appends that failed to reach the durable log."),
	}}
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

// Append assigns the next sequence number to r, retains it, persists it
// when the store is durable, and wakes the attached readers it matches
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
			// through PersistErr and the svc_store_persist_failures metric
			// rather than taking the whole service plane down.
			s.m.persistFails.Add(1)
			if s.persistErr == nil {
				s.persistErr = err
			}
		}
	}
	for sub := range s.subs {
		if sub.session == "" || sub.session == r.Session {
			select {
			case sub.wake <- struct{}{}:
			default: // a wake-up is already pending
			}
		}
	}
	s.mu.Unlock()
	return r
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
// fsync'd per opts, and on reopen the log is replayed — verifying each
// chunk against its address — so sequence numbers, session views, and
// reader cursors resume exactly where they stopped. A tail
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
	log, trunc, err := castore.OpenSegLog(dir, opts, func(payload []byte) error {
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
	info := ReplayInfo{Records: int(expect - 1), LastSeq: expect - 1}
	if trunc != nil {
		s.m.truncations.Add(1)
		info.Truncation = trunc.String()
		s.Append(Record{Kind: KindTruncated,
			Detail: "report log truncated on replay: " + trunc.String()})
	}
	return s, info, nil
}

// restore re-adopts one replayed record without assigning a new sequence
// number or waking readers (none can exist during replay).
func (s *Store) restore(r Record) {
	s.recs = append(s.recs, r)
	s.next = r.Seq + 1
	s.m.appended.Add(1)
	s.m.replayed.Add(1)
	if len(s.recs) > s.cap {
		s.recs = s.recs[1:]
		s.first++
		s.m.dropped.Add(1)
	}
}

// Sync flushes any unsynced appends of a durable store; a no-op for
// memory-only stores.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.log.Sync()
}

// Close syncs and closes a durable store's log (appends after Close stay
// in memory and count as persistence failures); a no-op for memory-only
// stores.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// Durable reports whether the store persists its records.
func (s *Store) Durable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log != nil
}

// PersistErr returns the first persistence failure, or nil.
func (s *Store) PersistErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistErr
}

// Since returns retained records with Seq > since, filtered to one
// session when session is non-empty, at most max of them (0 → no limit).
// lost is how many records between the cursor and the oldest retained one
// retention already dropped (the caller's cursor points into the dropped
// range); next is the store's current tail cursor — passing it back as
// since resumes exactly after the returned batch only when the batch was
// not truncated by max.
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
	if n := uint64(len(s.recs)); start > n {
		start = n
	}
	for _, r := range s.recs[start:] {
		if session != "" && r.Session != session {
			continue
		}
		recs = append(recs, r)
		if max > 0 && len(recs) == max {
			break
		}
	}
	next = since
	if n := len(recs); n > 0 {
		next = recs[n-1].Seq
	} else if s.next > 1 {
		next = s.next - 1
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

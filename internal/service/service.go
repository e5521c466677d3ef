package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"lrcrace/internal/castore"
	"lrcrace/internal/harness"
	"lrcrace/internal/race"
	"lrcrace/internal/sweep"
	"lrcrace/internal/telemetry"
)

// RunRequest is what a client submits to open a session: one sweep grid
// point as a concrete configuration, in the wire format sweep.Request
// defines. A sweep cell is an ID plus this request, so a remote cell is
// submitted as it is.
type RunRequest = sweep.Request

// RequestError is an admission-time rejection: the request as submitted
// can never run, so the service refuses it up front (HTTP 400) instead of
// failing mid-run.
type RequestError struct{ Reason string }

func (e *RequestError) Error() string { return "service: invalid request: " + e.Reason }

// OverloadError is the typed admission rejection under load: the session
// queue is full. Clients should back off and retry (HTTP 503).
type OverloadError struct {
	Queued, Limit int
	// RetryAfter is the server's suggested backoff (decoded from the
	// Retry-After header on the client side); 0 when the server gave none.
	RetryAfter time.Duration
	// Detail carries the raw server message when the error was decoded
	// from a response the client could not fully parse.
	Detail string
}

func (e *OverloadError) Error() string {
	if e.Detail != "" {
		return "service: overloaded: " + e.Detail
	}
	return fmt.Sprintf("service: overloaded: %d sessions queued (limit %d)", e.Queued, e.Limit)
}

// DefaultTenant is the identity of requests that carry no tenant.
const DefaultTenant = "default"

// QuotaError is the typed per-tenant admission rejection: the tenant is
// at its concurrent-session or queue-depth quota. Only that tenant is
// affected — other tenants keep being admitted — so clients should back
// off and retry (HTTP 429). Scope is "sessions" (TenantMaxActive) or
// "queue" (TenantMaxQueued).
type QuotaError struct {
	Tenant string
	Active int // the tenant's queued+running sessions at rejection time
	Limit  int
	Scope  string
	// RetryAfter mirrors OverloadError.RetryAfter on the client side.
	RetryAfter time.Duration
	// Detail carries the raw server message on the client side, where the
	// structured fields are not recoverable from the response body.
	Detail string
}

func (e *QuotaError) Error() string {
	if e.Detail != "" {
		return "service: tenant quota: " + e.Detail
	}
	return fmt.Sprintf("service: tenant %q over its %s quota: %d active (limit %d)",
		e.Tenant, e.Scope, e.Active, e.Limit)
}

// ErrClosed rejects submissions to a service that is shutting down.
var ErrClosed = errors.New("service: shutting down")

// SessionState is a session's lifecycle position.
type SessionState string

// Session lifecycle states.
const (
	// StateQueued: admitted, waiting for a pool slot.
	StateQueued SessionState = "queued"
	// StateRunning: a worker is executing the session's System.
	StateRunning SessionState = "running"
	// StateDone: terminal; the session has a CellResult.
	StateDone SessionState = "done"
	// StateCanceled: the service shut down before the session ran.
	StateCanceled SessionState = "canceled"
)

// Session is one admitted run request and, eventually, its outcome.
type Session struct {
	id     string
	tenant string
	req    RunRequest
	cfg    harness.RunConfig
	ck     sweep.Cell

	done chan struct{} // closed on done/canceled

	mu     sync.Mutex
	state  SessionState
	rec    *telemetry.Recorder
	result *sweep.CellResult
	races  []race.Report
}

// ID returns the session's identifier (unique within the service).
func (s *Session) ID() string { return s.id }

// Tenant returns the tenant the session is accounted to.
func (s *Session) Tenant() string { return s.tenant }

// State returns the session's current lifecycle state.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Done is closed when the session reaches a terminal state.
func (s *Session) Done() <-chan struct{} { return s.done }

// Result returns the session's terminal result (nil before done).
func (s *Session) Result() *sweep.CellResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.result
}

// Races returns the session's full race reports (nil before done; the
// live stream carries them incrementally as store records).
func (s *Session) Races() []race.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.races
}

// Info freezes the session for the JSON API.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionInfo{ID: s.id, Tenant: s.tenant, State: s.state, Request: s.req, Result: s.result, Races: s.races}
}

// SessionInfo is the JSON view of one session.
type SessionInfo struct {
	ID      string            `json:"id"`
	Tenant  string            `json:"tenant,omitempty"`
	State   SessionState      `json:"state"`
	Request RunRequest        `json:"request"`
	Result  *sweep.CellResult `json:"result,omitempty"`
	Races   []race.Report     `json:"races,omitempty"`
}

// Config tunes the service.
type Config struct {
	// MaxSessions is the concurrent-session pool size; 0 → 4.
	MaxSessions int
	// QueueDepth bounds admitted-but-waiting sessions; 0 → 64. A full
	// queue rejects submissions with *OverloadError.
	QueueDepth int
	// SessionTimeout is the per-session wall deadline; 0 → 2 minutes. A
	// session exceeding it is recorded with sweep.StatusTimeout and its
	// run goroutine abandoned (sweep.RunGuarded's bounded,
	// recorder-isolated leak).
	SessionTimeout time.Duration
	// StoreCap bounds report-store retention; 0 → DefaultStoreCap.
	StoreCap int
	// KeepDone bounds how many finished sessions stay queryable; 0 → 1024.
	// Older finished sessions are evicted (their store records remain).
	KeepDone int
	// DataDir, when non-empty, makes the report store durable: records
	// are appended to a content-addressed segment log there and replayed
	// on the next Open, restoring sequence numbers and replay cursors
	// exactly. Requires Open (New panics on open failure).
	DataDir string
	// StoreSyncEvery picks the durable store's mode. Any value >= 0 (0
	// and 1 included) group-commits: appends never wait on fsync, one
	// committer goroutine fsyncs batches, and nothing is visible to a
	// reader, and no admission or completion acknowledged, before it is on
	// disk. Negative makes records visible at once and syncs only on
	// Close. Ignored without DataDir.
	StoreSyncEvery int
	// TenantMaxActive caps one tenant's queued+running sessions; beyond
	// it, that tenant's submissions get *QuotaError while other tenants
	// are unaffected. 0 → unlimited (global admission still applies).
	TenantMaxActive int
	// TenantMaxQueued caps one tenant's share of the queue; 0 → unlimited.
	TenantMaxQueued int
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = 2 * time.Minute
	}
	if c.KeepDone <= 0 {
		c.KeepDone = 1024
	}
	return c
}

// Service is the long-running detection service: an admission-controlled
// session pool in front of the harness, feeding one shared report store.
// Create with New, submit with Submit, stop with Close.
type Service struct {
	cfg   Config
	store *Store
	queue chan *Session
	quit  chan struct{}
	wg    sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	nextID   uint64
	sessions map[string]*Session
	order    []string // session IDs in admission order
	tenants  map[string]*tenantCounts

	// reg holds the service's own series (svc_*), as opposed to its
	// sessions': /metrics is this registry followed by the sessions' keyed
	// snapshots. Counters are incremented where their events happen; the
	// gauges mirror the ledgers above and are set at scrape time (collect).
	reg         *telemetry.Registry
	stateGauges map[SessionState]*telemetry.Gauge
}

// tenantCounts is one tenant's admission-control ledger; the two gauges
// publish queued and running, the two counters are the only copy of theirs.
type tenantCounts struct {
	queued, running           int
	queuedGauge, runningGauge *telemetry.Gauge
	admitted, rejected        *telemetry.Counter
}

// New builds an in-memory service and starts its worker pool. It panics
// when cfg.DataDir is set and the report log cannot be opened — durable
// deployments should use Open, which returns the error (and the replay
// summary) instead.
func New(cfg Config) *Service {
	svc, _, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return svc
}

// Open builds the service, opening (and replaying) the durable report
// store when cfg.DataDir is set, and starts its worker pool. The
// ReplayInfo reports what was restored: record count, last sequence
// number, and any verified-and-truncated corrupt tail.
func Open(cfg Config) (*Service, ReplayInfo, error) {
	svc := &Service{
		cfg:         cfg.withDefaults(),
		quit:        make(chan struct{}),
		sessions:    make(map[string]*Session),
		tenants:     make(map[string]*tenantCounts),
		reg:         telemetry.NewRegistry(),
		stateGauges: make(map[SessionState]*telemetry.Gauge),
	}
	for _, g := range []struct {
		state      SessionState
		name, help string
	}{
		{StateQueued, "svc_sessions_queued", "Sessions admitted and waiting for a pool slot."},
		{StateRunning, "svc_sessions_running", "Sessions currently executing."},
		{StateDone, "svc_sessions_done", "Retained sessions with a terminal result."},
		{StateCanceled, "svc_sessions_canceled", "Sessions canceled by shutdown."},
	} {
		svc.stateGauges[g.state] = svc.reg.Gauge(g.name, g.help)
	}
	var info ReplayInfo
	if svc.cfg.DataDir != "" {
		store, ri, err := openStore(svc.cfg.DataDir, svc.cfg.StoreCap,
			castore.SegLogOptions{SyncEvery: svc.cfg.StoreSyncEvery}, svc.reg)
		if err != nil {
			return nil, ReplayInfo{}, err
		}
		svc.store, info = store, ri
	} else {
		svc.store = newStore(svc.cfg.StoreCap, svc.reg)
	}
	svc.queue = make(chan *Session, svc.cfg.QueueDepth)
	for i := 0; i < svc.cfg.MaxSessions; i++ {
		svc.wg.Add(1)
		go svc.worker()
	}
	return svc, info, nil
}

// Store returns the service's report store (for in-process readers).
func (svc *Service) Store() *Store { return svc.store }

// Submit validates and admits one run request, defaulted and resolved to
// its cell (sweep.Request.Defaulted, then Resolve), so a submitted sweep
// cell keeps its ID and run configuration. It returns *RequestError for
// whatever the validator rejects, before any System exists (map to HTTP
// 400), *QuotaError when the request's tenant is at its per-tenant quota
// (429), *OverloadError when the global queue is full (503), and ErrClosed
// during shutdown (503).
func (svc *Service) Submit(req RunRequest) (*Session, error) {
	cell, cfg, err := req.Defaulted().Resolve()
	if err != nil {
		return nil, &RequestError{Reason: err.Error()}
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	svc.mu.Lock()
	if svc.closed {
		svc.mu.Unlock()
		return nil, ErrClosed
	}
	tc := svc.tenants[tenant]
	if tc == nil {
		l := telemetry.Label{Key: "tenant", Value: tenant}
		tc = &tenantCounts{
			queuedGauge:  svc.reg.Gauge("svc_tenant_queued", "Sessions queued per tenant.", l),
			runningGauge: svc.reg.Gauge("svc_tenant_running", "Sessions running per tenant.", l),
			admitted:     svc.reg.Counter("svc_tenant_admitted_total", "Sessions ever admitted per tenant.", l),
			rejected:     svc.reg.Counter("svc_tenant_rejected_total", "Submissions rejected by per-tenant quota.", l),
		}
		svc.tenants[tenant] = tc
	}
	// Per-tenant quotas come before the global queue check: a tenant at
	// its quota is told so with a 429 even when the queue has room, and a
	// tenant within quota competes for the queue like anyone else.
	if lim := svc.cfg.TenantMaxActive; lim > 0 && tc.queued+tc.running >= lim {
		tc.rejected.Add(1)
		active := tc.queued + tc.running
		svc.mu.Unlock()
		return nil, &QuotaError{Tenant: tenant, Active: active, Limit: lim, Scope: "sessions"}
	}
	if lim := svc.cfg.TenantMaxQueued; lim > 0 && tc.queued >= lim {
		tc.rejected.Add(1)
		active := tc.queued + tc.running
		svc.mu.Unlock()
		return nil, &QuotaError{Tenant: tenant, Active: active, Limit: lim, Scope: "queue"}
	}
	svc.nextID++
	sess := &Session{
		id:     fmt.Sprintf("s%d-%s", svc.nextID, cell.ID),
		tenant: tenant,
		req:    req,
		cfg:    cfg,
		ck:     cell,
		state:  StateQueued,
		done:   make(chan struct{}),
	}
	select {
	case svc.queue <- sess:
	default:
		queued := len(svc.queue)
		svc.mu.Unlock()
		return nil, &OverloadError{Queued: queued, Limit: svc.cfg.QueueDepth}
	}
	tc.queued++
	tc.admitted.Add(1)
	svc.sessions[sess.id] = sess
	svc.order = append(svc.order, sess.id)
	svc.evictDoneLocked()
	svc.mu.Unlock()
	// The admission is acknowledged only once its record is durable.
	rec := svc.store.Append(Record{Session: sess.id, Tenant: tenant, Kind: KindSession, Detail: "admitted: " + cell.ID})
	svc.store.Commit(rec.Seq)
	return sess, nil
}

// tenantTransition moves one session between the tenant ledger's states:
// dq un-queues it, dr un-runs it, run marks it running.
func (svc *Service) tenantTransition(tenant string, dq, dr, run int) {
	svc.mu.Lock()
	if tc := svc.tenants[tenant]; tc != nil {
		tc.queued -= dq
		tc.running += run - dr
	}
	svc.mu.Unlock()
}

// evictDoneLocked drops the oldest finished sessions beyond KeepDone.
func (svc *Service) evictDoneLocked() {
	var doneIDs []string
	for _, id := range svc.order {
		if s := svc.sessions[id]; s != nil && (s.State() == StateDone || s.State() == StateCanceled) {
			doneIDs = append(doneIDs, id)
		}
	}
	for len(doneIDs) > svc.cfg.KeepDone {
		id := doneIDs[0]
		doneIDs = doneIDs[1:]
		delete(svc.sessions, id)
		for i, oid := range svc.order {
			if oid == id {
				svc.order = append(svc.order[:i], svc.order[i+1:]...)
				break
			}
		}
	}
}

// Session looks a session up by ID.
func (svc *Service) Session(id string) *Session {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return svc.sessions[id]
}

// Sessions returns retained sessions in admission order.
func (svc *Service) Sessions() []*Session {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	out := make([]*Session, 0, len(svc.order))
	for _, id := range svc.order {
		if s := svc.sessions[id]; s != nil {
			out = append(out, s)
		}
	}
	return out
}

// Counts returns how many retained sessions are in each state.
func (svc *Service) Counts() map[SessionState]int {
	out := make(map[SessionState]int)
	for _, s := range svc.Sessions() {
		out[s.State()]++
	}
	return out
}

// Close stops admission, cancels queued sessions, waits for the worker
// pool to finish its in-flight sessions, and syncs-and-closes the
// durable report log so every record written before Close returns is on
// disk.
func (svc *Service) Close() {
	svc.mu.Lock()
	if svc.closed {
		svc.mu.Unlock()
		svc.wg.Wait()
		svc.store.Close()
		return
	}
	svc.closed = true
	svc.mu.Unlock()
	close(svc.quit)
	// Drain the queue: whatever no worker picked up is canceled.
	for {
		select {
		case sess := <-svc.queue:
			sess.mu.Lock()
			sess.state = StateCanceled
			sess.mu.Unlock()
			close(sess.done)
			svc.tenantTransition(sess.tenant, 1, 0, 0)
			svc.store.Append(Record{Session: sess.id, Tenant: sess.tenant, Kind: KindSession,
				Detail: "canceled: service shutting down"})
		default:
			svc.wg.Wait()
			svc.store.Close()
			return
		}
	}
}

func (svc *Service) worker() {
	defer svc.wg.Done()
	for {
		select {
		case <-svc.quit:
			return
		case sess := <-svc.queue:
			svc.runSession(sess)
		}
	}
}

// runSession executes one session through the sweep's guarded runner — its
// own System, its own scoped recorder, abandoned at the deadline if it
// wedges — so a session's result is the CellResult a local sweep would
// have recorded for the same cell. The recorder's Observer streams
// detector output into the report store as it happens.
func (svc *Service) runSession(sess *Session) {
	rec := telemetry.New(telemetry.Config{
		Procs:      sess.cfg.Procs,
		Cap:        sweep.TelemetryCap,
		FlightSink: io.Discard,
		Observer: func(e telemetry.Event) {
			svc.observe(sess.id, sess.tenant, e)
		},
		TripObserver: func(reason telemetry.TripReason, detail string) {
			svc.store.Append(Record{Session: sess.id, Tenant: sess.tenant, Kind: KindTrip,
				Detail: reason.String() + ": " + detail})
		},
	})

	sess.mu.Lock()
	sess.state = StateRunning
	sess.rec = rec
	sess.mu.Unlock()
	svc.tenantTransition(sess.tenant, 1, 0, 1) // queued → running
	svc.store.Append(Record{Session: sess.id, Tenant: sess.tenant, Kind: KindSession, Detail: "started"})

	// Close waits for in-flight sessions rather than canceling them, so
	// there is no context to give up on: the deadline is the only way out.
	result, races := sweep.RunGuarded(context.Background(), sess.ck.ID, sess.cfg, rec, svc.cfg.SessionTimeout, 1)

	svc.tenantTransition(sess.tenant, 0, 1, 0) // running → done frees quota
	// The session reports done only once its "finished" record is durable.
	fin := svc.store.Append(Record{Session: sess.id, Tenant: sess.tenant, Kind: KindSession,
		Detail: fmt.Sprintf("finished: %s (%d races)", result.Status, result.Races)})
	svc.store.Commit(fin.Seq)
	sess.mu.Lock()
	sess.state = StateDone
	sess.result = result
	sess.races = races
	sess.mu.Unlock()
	close(sess.done)
}

// observe routes one live telemetry event of a running session into the
// report store. Races, crash detections, and rollback milestones are the
// events a subscriber cares about; everything else stays in the session's
// recorder (rings, metrics, flight buffer).
func (svc *Service) observe(session, tenant string, e telemetry.Event) {
	switch e.Kind {
	case telemetry.KRaceFound:
		svc.store.Append(Record{Session: session, Tenant: tenant, Kind: KindRace, VT: e.VT,
			Addr: uint64(e.A), Epoch: e.B, WriteWrite: e.C == 1})
	case telemetry.KCrashDetected:
		via := "barrier timeout"
		if e.B == 1 {
			via = "link death"
		}
		svc.store.Append(Record{Session: session, Tenant: tenant, Kind: KindRecovery, VT: e.VT,
			Detail: fmt.Sprintf("crash detected: suspect p%d via %s", e.A, via)})
	case telemetry.KRecoveryStart:
		svc.store.Append(Record{Session: session, Tenant: tenant, Kind: KindRecovery, VT: e.VT,
			Detail: fmt.Sprintf("rollback to epoch %d (victim p%d)", e.A, e.B)})
	case telemetry.KRecoveryDone:
		svc.store.Append(Record{Session: session, Tenant: tenant, Kind: KindRecovery, VT: e.VT,
			Detail: fmt.Sprintf("recovered at epoch %d (%d virtual ns re-executed)", e.A, e.B)})
	}
}

// collect refreshes the plane gauges from the ledgers they mirror: session
// states, the store's sizes, each tenant's queue.
func (svc *Service) collect() {
	counts := svc.Counts()
	for state, g := range svc.stateGauges {
		g.Set(float64(counts[state]))
	}
	svc.store.collect()
	svc.mu.Lock()
	defer svc.mu.Unlock()
	for _, tc := range svc.tenants {
		tc.queuedGauge.Set(float64(tc.queued))
		tc.runningGauge.Set(float64(tc.running))
	}
}

// snapshots returns every retained session's metrics snapshot — running
// sessions live off their recorders, finished ones from their canonical
// results — keyed by session ID, for the /metrics surface.
func (svc *Service) snapshots() map[string]*telemetry.Snapshot {
	out := make(map[string]*telemetry.Snapshot)
	for _, s := range svc.Sessions() {
		s.mu.Lock()
		switch {
		case s.state == StateRunning && s.rec != nil:
			out[s.id] = s.rec.Metrics().Snapshot()
		case s.result != nil && s.result.Metrics != nil:
			out[s.id] = s.result.Metrics
		}
		s.mu.Unlock()
	}
	return out
}

// flightRecorder returns a session's recorder, or nil.
func (svc *Service) flightRecorder(id string) *telemetry.Recorder {
	s := svc.Session(id)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

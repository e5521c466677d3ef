package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"lrcrace/internal/harness"
	"lrcrace/internal/race"
	"lrcrace/internal/telemetry"
)

// Status is the terminal state of one cell.
type Status string

// Cell terminal states. A cell missing from the results (sweep
// interrupted before it finished) has no status; resuming re-runs it.
const (
	StatusOK      Status = "ok"      // run completed and verified
	StatusFailed  Status = "failed"  // run returned an error on every attempt
	StatusTimeout Status = "timeout" // run exceeded the per-cell deadline
	StatusPanic   Status = "panic"   // run panicked (caught; sweep continued)
)

// Terminal reports whether the status means the cell is done and a resumed
// sweep must not re-run it.
func (s Status) Terminal() bool {
	switch s {
	case StatusOK, StatusFailed, StatusTimeout, StatusPanic:
		return true
	}
	return false
}

// CellResult is the persisted outcome of one cell.
type CellResult struct {
	ID      string `json:"id"`
	Status  Status `json:"status"`
	Error   string `json:"error,omitempty"`
	Attempt int    `json:"attempt"` // 1-based attempt that produced this result

	Races         int   `json:"races"`
	DistinctRaces int   `json:"distinct_races"`
	VirtualNS     int64 `json:"virtual_ns"`
	// WallNS is real execution time — reported in the summary but never in
	// the aggregated metrics document, which must be deterministic.
	WallNS int64 `json:"wall_ns"`

	// Metrics is the cell's canonical metrics snapshot (wall-dependent
	// series stripped); nil for cells that never produced a result.
	Metrics *telemetry.Snapshot `json:"metrics,omitempty"`
}

// Options tunes sweep execution.
type Options struct {
	// Workers is the number of cells run concurrently; 0 → 4.
	Workers int
	// CellTimeout bounds one attempt's wall time; 0 → 2 minutes. The run's
	// barrier wall timeout is set from it too (unless the plan is lossy and
	// the reliable sublayer's own link-death detection is in charge), so a
	// wedged barrier aborts itself instead of leaking a live System.
	CellTimeout time.Duration
	// Retries is how many extra attempts a failed or panicking cell gets
	// before its failure is recorded; timeouts are never retried.
	Retries int
	// Dir, when non-empty, persists the manifest and per-cell results
	// there, making the sweep resumable (see manifest.go).
	Dir string
	// TelemetryCap is the per-ring event capacity of each cell's recorder;
	// 0 → 4096, negative → unbounded.
	TelemetryCap int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.CellTimeout <= 0 {
		o.CellTimeout = 2 * time.Minute
	}
	if o.TelemetryCap == 0 {
		o.TelemetryCap = 4096
	}
	return o
}

// Sweep is one orchestrated grid execution: the expanded plan, the results
// gathered so far, and the live per-cell recorders the HTTP endpoint
// serves. Create with New, execute with Run; the read-side accessors are
// safe to call concurrently with Run (that is the point of them).
type Sweep struct {
	plan  *Plan
	opts  Options
	cells []Cell

	mu      sync.Mutex
	results map[string]*CellResult
	live    map[string]*telemetry.Recorder // recorders of cells in flight
	flight  map[string]*telemetry.Recorder // latest recorder per cell, kept for /flight
	start   time.Time
}

// New expands the plan and, when opts.Dir is set, loads any previous
// results from it (writing the manifest on first use). Cells whose results
// were loaded are skipped by Run.
func New(plan *Plan, opts Options) (*Sweep, error) {
	cells, err := plan.Expand()
	if err != nil {
		return nil, err
	}
	s := &Sweep{
		plan:    plan,
		opts:    opts.withDefaults(),
		cells:   cells,
		results: make(map[string]*CellResult),
		live:    make(map[string]*telemetry.Recorder),
		flight:  make(map[string]*telemetry.Recorder),
	}
	if s.opts.Dir != "" {
		loaded, err := initDir(s.opts.Dir, plan, cells)
		if err != nil {
			return nil, err
		}
		for id, r := range loaded {
			s.results[id] = r
		}
	}
	return s, nil
}

// Cells returns the expanded grid in plan order.
func (s *Sweep) Cells() []Cell { return s.cells }

// Pending returns the cells that still lack a terminal result, in plan
// order — what Run would execute, or what a remote dispatcher should
// submit. Resume-aware: cells loaded from the checkpoint directory are
// not pending.
func (s *Sweep) Pending() []Cell {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Cell
	for _, c := range s.cells {
		if r, ok := s.results[c.ID]; !ok || !r.Status.Terminal() {
			out = append(out, c)
		}
	}
	return out
}

// Record adopts an externally produced terminal result for one of the
// sweep's cells — the merge half of remote dispatch (`sweeprun -remote`):
// a result fetched from a detection-service session lands in the same
// in-memory results map and, when the sweep has a checkpoint directory,
// the same atomically written cell file as a locally run cell, so
// summaries, metrics documents, and resume behave identically.
func (s *Sweep) Record(r *CellResult) error {
	if r == nil || !r.Status.Terminal() {
		return fmt.Errorf("sweep: Record needs a terminal result")
	}
	known := false
	for _, c := range s.cells {
		if c.ID == r.ID {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("sweep: result for unknown cell %q", r.ID)
	}
	s.mu.Lock()
	s.results[r.ID] = r
	s.mu.Unlock()
	if s.opts.Dir != "" {
		return writeCellResult(s.opts.Dir, r)
	}
	return nil
}

// Run executes every cell that does not already have a terminal result,
// at most Options.Workers at a time. A failed, wedged, or panicking cell
// is recorded and the sweep continues; Run's error is reserved for the
// sweep's own machinery (context cancellation, checkpoint I/O). The
// returned Summary covers all cells, including ones loaded from a
// previous interrupted run.
func (s *Sweep) Run(ctx context.Context) (*Summary, error) {
	s.mu.Lock()
	s.start = time.Now()
	pending := make([]Cell, 0, len(s.cells))
	for _, c := range s.cells {
		if r, ok := s.results[c.ID]; !ok || !r.Status.Terminal() {
			pending = append(pending, c)
		}
	}
	s.mu.Unlock()

	jobs := make(chan Cell)
	var wg sync.WaitGroup
	var ioMu sync.Mutex
	var ioErr error
	for i := 0; i < s.opts.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				res := s.runCell(ctx, c)
				if res == nil {
					continue // canceled mid-cell; leave it missing for resume
				}
				s.mu.Lock()
				s.results[c.ID] = res
				s.mu.Unlock()
				if s.opts.Dir != "" {
					if err := writeCellResult(s.opts.Dir, res); err != nil {
						ioMu.Lock()
						if ioErr == nil {
							ioErr = err
						}
						ioMu.Unlock()
					}
				}
			}
		}()
	}
feed:
	for _, c := range pending {
		select {
		case jobs <- c:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if ioErr != nil {
		return s.Summary(), ioErr
	}
	return s.Summary(), ctx.Err()
}

// runCell executes one cell with attempt/panic/deadline isolation. It
// returns nil when the context was canceled before a terminal outcome.
func (s *Sweep) runCell(ctx context.Context, c Cell) *CellResult {
	attempts := 1 + s.opts.Retries
	var last *CellResult
	for attempt := 1; attempt <= attempts; attempt++ {
		if ctx.Err() != nil {
			return nil
		}
		last = s.attemptCell(ctx, c, attempt)
		if last == nil || last.Status == StatusOK || last.Status == StatusTimeout {
			return last
		}
	}
	return last
}

// attemptCell is one isolated execution of a cell, with its recorder
// published to the live endpoint for as long as the attempt runs.
func (s *Sweep) attemptCell(ctx context.Context, c Cell, attempt int) *CellResult {
	cfg, err := s.plan.RunConfig(c)
	if err != nil {
		return &CellResult{ID: c.ID, Status: StatusFailed, Error: err.Error(), Attempt: attempt}
	}
	rec := telemetry.New(telemetry.Config{
		Procs:      c.Procs,
		Cap:        s.opts.TelemetryCap,
		FlightSink: io.Discard, // dumps are served on demand, not spammed to stderr
	})
	s.mu.Lock()
	s.live[c.ID] = rec
	s.flight[c.ID] = rec // retained after completion so /flight still answers
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.live, c.ID)
		s.mu.Unlock()
	}()
	res, _ := RunGuarded(ctx, c.ID, cfg, rec, s.opts.CellTimeout, attempt)
	return res
}

// runPanic is the error a panicking run is reported with.
type runPanic struct{ msg string }

func (p *runPanic) Error() string { return p.msg }

// RunGuarded is the one guarded executor of a run configuration — a sweep
// cell locally, a session in the detection service: harness.Run on its own
// goroutine with rec as the run's recorder, so that a panic is caught and a
// wedged run is abandoned at the timeout instead of taking the caller down.
// The abandoned goroutine's System and telemetry are private to the run, so
// the leak is bounded and cannot corrupt later runs. It returns the
// terminal CellResult (ok, failed, panic, or timeout) under the given id
// and attempt number, plus the full race reports of an ok run; both are nil
// when ctx was canceled first.
func RunGuarded(ctx context.Context, id string, cfg harness.RunConfig, rec *telemetry.Recorder, timeout time.Duration, attempt int) (*CellResult, []race.Report) {
	cfg.Recorder = rec
	// The deadline doubles as the barrier wall timeout, so a wedged barrier
	// aborts itself instead of leaking a live System — except where another
	// crash detector is in charge: the reliable sublayer's link-death
	// detection, or a chaos app's own tight timeout, which is what notices
	// quiet deaths (a mid-interval victim produces no link traffic) and
	// would read as a wedged run if it were as slow as the deadline.
	if cfg.BarrierWallTimeout == 0 && !cfg.Reliable && !harness.IsChaosApp(cfg.App) {
		cfg.BarrierWallTimeout = timeout
	}

	type outcome struct {
		res *harness.Result
		err error
	}
	out := make(chan outcome, 1) // the run goroutine's one send never blocks
	go func() {
		defer func() {
			if p := recover(); p != nil {
				out <- outcome{err: &runPanic{fmt.Sprintf("panic: %v\n%s", p, debug.Stack())}}
			}
		}()
		res, err := harness.Run(cfg)
		out <- outcome{res: res, err: err}
	}()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	result := &CellResult{ID: id, Attempt: attempt}
	var races []race.Report
	select {
	case o := <-out:
		var panicked *runPanic
		switch {
		case errors.As(o.err, &panicked):
			result.Status, result.Error = StatusPanic, o.err.Error()
		case o.err != nil:
			result.Status, result.Error = StatusFailed, o.err.Error()
		default:
			races = o.res.Races
			result.Status = StatusOK
			result.Races = len(races)
			result.DistinctRaces = len(race.DedupByAddr(races))
			result.VirtualNS = o.res.VirtualNS
			result.WallNS = o.res.WallNS
		}
	case <-timer.C:
		result.Status, result.Error = StatusTimeout, fmt.Sprintf("run exceeded %v", timeout)
	case <-ctx.Done():
		return nil, nil
	}
	result.Metrics = rec.Metrics().Snapshot().Canonical()
	return result, races
}

// Progress is a point-in-time view of the sweep for the HTTP endpoint.
type Progress struct {
	Total   int    `json:"total"`
	Done    int    `json:"done"`
	OK      int    `json:"ok"`
	Failed  int    `json:"failed"` // failed + timeout + panic
	Running int    `json:"running"`
	Races   int    `json:"races"`
	Elapsed string `json:"elapsed,omitempty"`

	Cells []CellStatus `json:"cells"`
}

// CellStatus is one cell's line in the progress view.
type CellStatus struct {
	ID      string `json:"id"`
	Status  Status `json:"status"` // "" → not started, "running" → in flight
	Races   int    `json:"races,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Error   string `json:"error,omitempty"`
}

// Progress returns the sweep's current state; safe during Run.
func (s *Sweep) Progress() Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := Progress{Total: len(s.cells)}
	if !s.start.IsZero() {
		p.Elapsed = time.Since(s.start).Round(time.Millisecond).String()
	}
	for _, c := range s.cells {
		cs := CellStatus{ID: c.ID}
		if r, ok := s.results[c.ID]; ok && r.Status.Terminal() {
			cs.Status, cs.Races, cs.Attempt, cs.Error = r.Status, r.Races, r.Attempt, r.Error
			p.Done++
			if r.Status == StatusOK {
				p.OK++
			} else {
				p.Failed++
			}
			p.Races += r.Races
		} else if _, running := s.live[c.ID]; running {
			cs.Status = "running"
			p.Running++
		}
		p.Cells = append(p.Cells, cs)
	}
	return p
}

// snapshots returns every cell's metrics snapshot: finished cells from
// their results, in-flight cells live from their recorders.
func (s *Sweep) snapshots() map[string]*telemetry.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*telemetry.Snapshot)
	for id, r := range s.results {
		if r.Metrics != nil {
			out[id] = r.Metrics
		}
	}
	for id, rec := range s.live {
		out[id] = rec.Metrics().Snapshot()
	}
	return out
}

// flightRecorder returns a cell's most recent recorder (in flight or
// finished this process), or nil if the cell never started here.
func (s *Sweep) flightRecorder(id string) *telemetry.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flight[id]
}

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
	// before its failure is recorded; timeouts are never retried. It
	// applies to the local runner only: an Executor's result is final.
	Retries int
	// Dir, when non-empty, persists the manifest and per-cell results
	// there, making the sweep resumable (see manifest.go).
	Dir string
}

// TelemetryCap is the per-ring event capacity of every run's recorder — a
// sweep cell's and a service session's alike.
const TelemetryCap = 4096

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.CellTimeout <= 0 {
		o.CellTimeout = 2 * time.Minute
	}
	return o
}

// Sweep is one orchestrated grid execution: the expanded plan, the results
// gathered so far, and the live per-cell recorders the HTTP endpoint
// serves. Create with New, execute with Run (or RunWith, to run the cells
// somewhere else); the read-side accessors are safe to call concurrently
// with Run (that is the point of them).
type Sweep struct {
	plan  *Plan
	opts  Options
	cells []Cell

	mu      sync.Mutex
	results map[string]*CellResult
	// live holds the cells in flight and, for cells running in this
	// process, the current attempt's recorder (nil for a cell an Executor
	// runs elsewhere).
	live   map[string]*telemetry.Recorder
	flight map[string]*telemetry.Recorder // latest recorder per cell, kept for /flight
	start  time.Time

	// reg holds the sweep's own series (sweep_*), as opposed to its cells';
	// /metrics is this registry followed by the cells' keyed snapshots.
	reg *telemetry.Registry
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
		reg:     telemetry.NewRegistry(),
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

// Executor runs one cell to its terminal result. A nil result with a nil
// error means the context was canceled first; an error means the cell could
// not be run at all (as opposed to run and failed, which is a result).
// Either way the cell stays pending, and a resumed sweep runs it again.
type Executor func(ctx context.Context, c Cell) (*CellResult, error)

// Run executes the sweep in this process: RunWith under the local guarded
// runner (own System, own recorder, retries, deadline — see RunGuarded).
func (s *Sweep) Run(ctx context.Context) (*Summary, error) { return s.RunWith(ctx, nil) }

// RunWith executes every cell that does not already have a terminal
// result through exec (nil → the local guarded runner), at most
// Options.Workers at a time. Whatever exec is — this process, or a
// dispatcher handing cells to detection-service nodes — results land in
// the same results map, cell files and progress ledger, so summaries,
// metrics documents and resume cannot tell the difference. A failed,
// wedged, or panicking cell is a result and the sweep continues; the
// returned error is reserved for the machinery (a cell exec could not run
// or mislabeled, checkpoint I/O, context cancellation) and reported after
// the pool drains, so one poisoned cell does not strand the rest. The
// returned Summary covers all cells, including ones loaded from a
// previous interrupted run.
func (s *Sweep) RunWith(ctx context.Context, exec Executor) (*Summary, error) {
	if exec == nil {
		exec = s.runCell
	}
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
	var errMu sync.Mutex
	var firstErr error
	for i := 0; i < s.opts.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				if err := s.execCell(ctx, exec, c); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
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
	if firstErr != nil {
		return s.Summary(), firstErr
	}
	return s.Summary(), ctx.Err()
}

// execCell runs one cell through exec, shown as running for as long as it
// takes, and adopts its result: into the results map and, when the sweep
// has a checkpoint directory, its cell file.
func (s *Sweep) execCell(ctx context.Context, exec Executor, c Cell) error {
	s.mu.Lock()
	s.live[c.ID] = nil
	s.mu.Unlock()
	res, err := exec(ctx, c)
	s.mu.Lock()
	delete(s.live, c.ID)
	s.mu.Unlock()
	switch {
	case err != nil:
		return fmt.Errorf("cell %s: %w", c.ID, err)
	case res == nil:
		return nil // canceled mid-cell; leave it missing for resume
	case res.ID != c.ID || !res.Status.Terminal():
		// An executor that dropped an axis on the way out comes back under
		// another cell's ID; adopting that would be a silent mixed grid.
		return fmt.Errorf("cell %s: executor returned a result for %q with status %q", c.ID, res.ID, res.Status)
	}
	s.mu.Lock()
	s.results[c.ID] = res
	s.mu.Unlock()
	if s.opts.Dir != "" {
		return writeCellResult(s.opts.Dir, res)
	}
	return nil
}

// runCell is the local Executor: one cell with attempt/panic/deadline
// isolation. It returns nil when the context was canceled before a
// terminal outcome.
func (s *Sweep) runCell(ctx context.Context, c Cell) (*CellResult, error) {
	attempts := 1 + s.opts.Retries
	var last *CellResult
	for attempt := 1; attempt <= attempts; attempt++ {
		if ctx.Err() != nil {
			return nil, nil
		}
		last = s.attemptCell(ctx, c, attempt)
		if last == nil || last.Status == StatusOK || last.Status == StatusTimeout {
			break
		}
	}
	return last, nil
}

// attemptCell is one isolated execution of a cell, with its recorder
// published to the live endpoint for as long as the cell runs.
func (s *Sweep) attemptCell(ctx context.Context, c Cell, attempt int) *CellResult {
	cfg, err := c.RunConfig()
	if err != nil {
		return &CellResult{ID: c.ID, Status: StatusFailed, Error: err.Error(), Attempt: attempt}
	}
	rec := telemetry.New(telemetry.Config{
		Procs:      c.Procs,
		Cap:        TelemetryCap,
		FlightSink: io.Discard, // dumps are served on demand, not spammed to stderr
	})
	s.mu.Lock()
	s.live[c.ID] = rec
	s.flight[c.ID] = rec // retained after completion so /flight still answers
	s.mu.Unlock()
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
	// On the DSM the deadline doubles as the barrier wall timeout, so a
	// wedged barrier aborts itself instead of leaking a live System —
	// except where another crash detector is in charge: the reliable
	// sublayer's link-death detection, or a chaos app's own tight timeout,
	// which is what notices quiet deaths (a mid-interval victim produces
	// no link traffic) and would read as a wedged run if it were as slow
	// as the deadline. A go run has no barrier and takes no DSM settings.
	if !harness.IsGoFrontend(cfg.Frontend) && cfg.DSM.BarrierWallTimeout == 0 && !cfg.DSM.Reliable && !harness.IsChaosApp(cfg.App) {
		cfg.DSM.BarrierWallTimeout = timeout
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
		} else if _, running := s.live[c.ID]; running { // here or at an Executor's node
			cs.Status = "running"
			p.Running++
		}
		p.Cells = append(p.Cells, cs)
	}
	return p
}

// collect refreshes the sweep's own series from the progress ledger, which
// stays the only copy of each number: all six are gauges set at scrape time.
func (s *Sweep) collect() {
	p := s.Progress()
	for _, g := range []struct {
		name, help string
		v          int
	}{
		{"sweep_cells_total", "Cells in the sweep grid.", p.Total},
		{"sweep_cells_done", "Cells with a terminal result.", p.Done},
		{"sweep_cells_ok", "Cells that completed and verified.", p.OK},
		{"sweep_cells_failed", "Cells that failed, timed out, or panicked.", p.Failed},
		{"sweep_cells_running", "Cells currently in flight.", p.Running},
		{"sweep_races_total", "Dynamic race reports across finished cells.", p.Races},
	} {
		s.reg.Gauge(g.name, g.help).Set(float64(g.v))
	}
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
		if rec != nil {
			out[id] = rec.Metrics().Snapshot()
		}
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

package sweep

import (
	"encoding/json"
	"fmt"
	"io"

	"lrcrace/internal/telemetry"
)

// Summary is the sweep's human-and-machine-readable outcome: per-cell
// status in grid order plus the totals. Wall times live here (and only
// here) — the aggregated metrics document excludes them so it stays
// deterministic.
type Summary struct {
	Fingerprint string `json:"fingerprint"`

	Total    int `json:"total"`
	OK       int `json:"ok"`
	Failed   int `json:"failed"`
	Timeout  int `json:"timeout"`
	Panicked int `json:"panicked"`
	// Missing cells have no terminal result (the sweep was interrupted);
	// rerunning the same plan over the same directory completes them.
	Missing int `json:"missing"`
	// Running lists the missing cells in flight, here or at an executor's
	// node; empty once the sweep has finished.
	Running []string `json:"running,omitempty"`

	Races         int   `json:"races"`
	DistinctRaces int   `json:"distinct_races"`
	VirtualNS     int64 `json:"virtual_ns"`
	WallNS        int64 `json:"wall_ns"`

	Cells []CellResult `json:"cells"`
}

// Summary collects the current results in grid order; safe during Run.
func (s *Sweep) Summary() *Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := &Summary{Fingerprint: s.plan.Fingerprint(), Total: len(s.cells)}
	for _, c := range s.cells {
		r, ok := s.results[c.ID]
		if !ok || !r.Status.Terminal() {
			sum.Missing++
			if _, running := s.live[c.ID]; running {
				sum.Running = append(sum.Running, c.ID)
			}
			continue
		}
		switch r.Status {
		case StatusOK:
			sum.OK++
		case StatusTimeout:
			sum.Timeout++
		case StatusPanic:
			sum.Panicked++
		default:
			sum.Failed++
		}
		sum.Races += r.Races
		sum.DistinctRaces += r.DistinctRaces
		sum.VirtualNS += r.VirtualNS
		sum.WallNS += r.WallNS
		sum.Cells = append(sum.Cells, *r)
	}
	return sum
}

// WriteJSON writes the summary as indented JSON.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteTable writes the summary as a fixed-width text table.
func (s *Summary) WriteTable(w io.Writer) error {
	fmt.Fprintf(w, "sweep %0.12s: %d cells — %d ok, %d failed, %d timeout, %d panicked, %d missing; %d races (%d distinct)\n",
		s.Fingerprint, s.Total, s.OK, s.Failed, s.Timeout, s.Panicked, s.Missing, s.Races, s.DistinctRaces)
	fmt.Fprintf(w, "%-40s %-8s %7s %14s %12s\n", "cell", "status", "races", "virtual ms", "wall ms")
	for _, r := range s.Cells {
		fmt.Fprintf(w, "%-40s %-8s %7d %14.1f %12.0f\n",
			r.ID, r.Status, r.Races, float64(r.VirtualNS)/1e6, float64(r.WallNS)/1e6)
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return nil
}

// MetricsDoc is the sweep's machine-readable metrics document: one
// canonical snapshot per finished cell plus their sum. Every part of it is
// deterministic for deterministic workloads — wall-dependent series are
// stripped before a snapshot reaches a CellResult, keys are map keys (Go
// marshals them sorted), and cells enter the document by ID — so two runs
// of the same plan with the same seeds produce byte-identical output.
type MetricsDoc struct {
	Fingerprint string                         `json:"fingerprint"`
	Cells       map[string]*telemetry.Snapshot `json:"cells"`
	Aggregate   *telemetry.Snapshot            `json:"aggregate"`
}

// MetricsDoc builds the document from the finished cells' snapshots.
func (s *Sweep) MetricsDoc() *MetricsDoc {
	s.mu.Lock()
	defer s.mu.Unlock()
	doc := &MetricsDoc{
		Fingerprint: s.plan.Fingerprint(),
		Cells:       make(map[string]*telemetry.Snapshot),
		Aggregate:   telemetry.NewSnapshot(),
	}
	for _, c := range s.cells {
		if r, ok := s.results[c.ID]; ok && r.Status.Terminal() && r.Metrics != nil {
			doc.Cells[c.ID] = r.Metrics
			doc.Aggregate.Merge(r.Metrics)
		}
	}
	return doc
}

// WriteMetricsJSON writes the metrics document as indented JSON.
func (s *Sweep) WriteMetricsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.MetricsDoc())
}

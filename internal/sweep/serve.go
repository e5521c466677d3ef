package sweep

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"lrcrace/internal/telemetry"
)

// Handler returns the sweep's live HTTP surface:
//
//	/metrics       — Prometheus text: the sweep's own registry (sweep_*
//	                 progress gauges), then every cell's series labeled
//	                 cell="<id>" (finished cells from their
//	                 canonical results, in-flight cells straight off their
//	                 recorders), and unlabeled aggregate sums per family
//	/sweep         — JSON progress: the Summary so far, which lists the
//	                 cells in flight, plus the wall time since Run began
//	/flight/<id>   — flight-recorder dump of a cell's run
//
// All endpoints are read-only and safe to scrape while Run executes.
func (s *Sweep) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/sweep", s.handleSweep)
	mux.HandleFunc("/flight/", s.handleFlight)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "lrcrace sweep: /metrics (Prometheus text), /sweep (JSON progress), /flight/<cell-id> (flight dump)\n")
	})
	return mux
}

func (s *Sweep) handleSweep(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	start := s.start
	s.mu.Unlock()
	view := struct {
		*Summary
		Elapsed string `json:"elapsed,omitempty"`
	}{Summary: s.Summary()}
	if !start.IsZero() {
		view.Elapsed = time.Since(start).Round(time.Millisecond).String()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(view)
}

func (s *Sweep) handleFlight(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/flight/")
	rec := s.flightRecorder(id)
	if rec == nil {
		http.Error(w, fmt.Sprintf("no recorder for cell %q (not started yet?)", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rec.DumpFlight(w, "on-demand dump over /flight")
}

func (s *Sweep) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.collect()
	s.reg.WriteProm(w)
	telemetry.WriteKeyedProm(w, "cell", s.snapshots())
}

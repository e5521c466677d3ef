package sweep

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"lrcrace/internal/telemetry/promtest"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestServeLiveMetrics scrapes the HTTP surface while a sweep is running
// and again after it finishes: /metrics must be valid Prometheus text both
// times, /sweep must decode as the Summary with the elapsed time, and
// /flight/<id> must dump a started cell's recorder.
func TestServeLiveMetrics(t *testing.T) {
	// One worker over four cells keeps the sweep observably "running".
	plan := planFFTSOR()
	s, err := New(plan, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	done := make(chan *Summary, 1)
	go func() {
		sum, err := s.Run(context.Background())
		if err != nil {
			t.Error(err)
		}
		done <- sum
	}()

	// Wait until at least one cell has started, then scrape mid-run.
	var started string
	deadline := time.After(10 * time.Second)
	for started == "" {
		select {
		case <-deadline:
			t.Fatal("no cell started within 10s")
		default:
		}
		if sum := s.Summary(); len(sum.Running) > 0 {
			started = sum.Running[0]
		} else if len(sum.Cells) > 0 {
			started = sum.Cells[0].ID
		}
		if started == "" {
			time.Sleep(time.Millisecond)
		}
	}
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics mid-run: status %d", code)
	}
	promtest.Check(t, body)
	if !strings.Contains(body, "sweep_cells_total 4") {
		t.Errorf("/metrics missing sweep_cells_total 4:\n%.400s", body)
	}

	code, body = get(t, srv.URL+"/sweep")
	if code != http.StatusOK {
		t.Fatalf("/sweep: status %d", code)
	}
	var p struct {
		Summary
		Elapsed string `json:"elapsed"`
	}
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("/sweep body does not decode as Summary: %v", err)
	}
	if p.Total != 4 {
		t.Errorf("/sweep Total = %d, want 4", p.Total)
	}
	if p.Elapsed == "" {
		t.Error("/sweep lost the elapsed time")
	}

	if code, _ := get(t, srv.URL+"/flight/"+started); code != http.StatusOK {
		t.Errorf("/flight/%s: status %d, want 200", started, code)
	}
	if code, _ := get(t, srv.URL+"/flight/no-such-cell"); code != http.StatusNotFound {
		t.Errorf("/flight of unknown cell: status %d, want 404", code)
	}

	sum := <-done
	if sum == nil || sum.OK != sum.Total {
		t.Fatalf("sweep did not finish clean: %+v", sum)
	}

	// Final scrape: all cells present with the cell label, aggregates too.
	code, body = get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics post-run: status %d", code)
	}
	promtest.Check(t, body)
	cells, _ := plan.Expand()
	for _, c := range cells {
		if !strings.Contains(body, `cell="`+c.ID+`"`) {
			t.Errorf("final /metrics missing series for cell %s", c.ID)
		}
	}
	if !strings.Contains(body, "sweep_cells_ok 4") {
		t.Error("final /metrics missing sweep_cells_ok 4")
	}
	// Cell-free aggregate lines exist alongside the labeled ones.
	if !regexp.MustCompile(`(?m)^telemetry_events_total\{kind="BarrierArrive"\} \d+$`).MatchString(body) {
		t.Error("final /metrics missing cell-free aggregate for telemetry_events_total")
	}
}

// TestMetricsEscapesCellID: Expand keeps a cell whose app no registry knows
// (it fails at run time, with metrics), so a cell ID is outside input and
// must reach /metrics escaped like any label value. Spliced in raw, an app
// named x"y made the whole exposition unparseable.
func TestMetricsEscapesCellID(t *testing.T) {
	s, err := New(&Plan{Apps: []string{`x"y`}, Procs: []int{2}}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Run(context.Background())
	if err != nil || sum.Failed != 1 {
		t.Fatalf("sweep of an unknown app: %+v, %v (want one failed cell)", sum, err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	_, body := get(t, srv.URL+"/metrics")
	promtest.Check(t, body)
	if !strings.Contains(body, `{cell="x\"y-`) {
		t.Errorf("/metrics does not carry the escaped cell ID:\n%.600s", body)
	}
}

package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"lrcrace/internal/sweep"
	"lrcrace/internal/telemetry/promtest"
)

// TestPlaneSeriesDocumented pins docs/OBSERVABILITY.md's plane-series table
// to what the two plane registries expose: every svc_* / sweep_* family on a
// durable service's and a sweep's /metrics has a row with its type, and
// every row has a live family.
func TestPlaneSeriesDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]string{}
	for _, m := range regexp.MustCompile("(?m)^\\| `((?:svc|sweep)_[a-z_]+)` \\| (counter|gauge|histogram) \\|").FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = m[2]
	}
	if len(documented) == 0 {
		t.Fatal("no plane-series table rows found in docs/OBSERVABILITY.md")
	}

	// A durable store and one admitted tenant bring every family into being.
	svc, ts, _ := newTestServer(t, Config{MaxSessions: 1, DataDir: t.TempDir()})
	runOne(t, svc, RunRequest{App: "FFT", Scale: 0.25, Procs: 2})
	sw, err := sweep.New(&sweep.Plan{Apps: []string{"FFT"}}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(sw.Handler())
	defer sts.Close()
	live := map[string]string{}
	for _, url := range []string{ts.URL, sts.URL} {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for fam, typ := range promtest.Check(t, string(body)) {
			live[fam] = typ
		}
	}

	for fam, typ := range live {
		if !strings.HasPrefix(fam, "svc_") && !strings.HasPrefix(fam, "sweep_") {
			continue
		}
		if documented[fam] != typ {
			t.Errorf("%s is a %s on /metrics; docs/OBSERVABILITY.md's table says %q", fam, typ, documented[fam])
		}
		delete(documented, fam)
	}
	for fam := range documented {
		t.Errorf("docs/OBSERVABILITY.md documents %s, which no plane registry exposes", fam)
	}
}

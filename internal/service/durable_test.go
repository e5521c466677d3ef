package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lrcrace/internal/castore"
	"lrcrace/internal/telemetry/promtest"
)

// runOne submits req and waits for the session to finish.
func runOne(t *testing.T, svc *Service, req RunRequest) *Session {
	t.Helper()
	sess, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sess.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("session %s did not finish", sess.ID())
	}
	return sess
}

// TestDurableRestartReplay is the restart acceptance test: fill a durable
// store with real session history, close the service, reopen it against
// the same data directory, and the records, sequence numbers, and append
// cursor are restored exactly.
func TestDurableRestartReplay(t *testing.T) {
	dir := t.TempDir()
	svc, info, err := Open(Config{MaxSessions: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 0 {
		t.Fatalf("fresh durable store: replay %+v", info)
	}
	runOne(t, svc, RunRequest{App: "FFT", Scale: 0.25, Procs: 2})
	runOne(t, svc, RunRequest{App: "SOR", Scale: 0.25, Procs: 2, Tenant: "acme"})
	before, _, _ := svc.Store().Since(0, "", 0)
	if len(before) == 0 {
		t.Fatal("no records before restart")
	}
	appended := svc.Store().Appended()
	svc.Close()

	svc2, info2, err := Open(Config{MaxSessions: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if info2.Truncation != "" {
		t.Fatalf("clean restart reported truncation: %s", info2.Truncation)
	}
	if uint64(info2.Records) != appended || info2.LastSeq != appended {
		t.Fatalf("replay restored %d records to seq %d, want %d", info2.Records, info2.LastSeq, appended)
	}
	after, _, _ := svc2.Store().Since(0, "", 0)
	if len(after) != len(before) {
		t.Fatalf("restart changed record count: %d -> %d", len(before), len(after))
	}
	for i := range before {
		b, _ := json.Marshal(before[i])
		a, _ := json.Marshal(after[i])
		if string(a) != string(b) {
			t.Fatalf("record %d changed across restart:\n  before %s\n  after  %s", i, b, a)
		}
	}
	// Appends continue exactly after the replayed history, and tenants
	// carried through the log.
	rec := svc2.Store().Append(Record{Kind: KindSession, Detail: "post-restart"})
	if rec.Seq != appended+1 {
		t.Fatalf("post-restart append got seq %d, want %d", rec.Seq, appended+1)
	}
	acme, _, _ := svc2.Store().Since(0, "", 0)
	var sawTenant bool
	for _, r := range acme {
		if r.Tenant == "acme" {
			sawTenant = true
		}
	}
	if !sawTenant {
		t.Error("tenant identity lost across restart")
	}
}

// sseRecord reads SSE frames off r until it has delivered want records or
// the deadline passes.
func readSSE(t *testing.T, r *bufio.Reader, want int) []Record {
	t.Helper()
	var out []Record
	deadline := time.Now().Add(30 * time.Second)
	for len(out) < want && time.Now().Before(deadline) {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE read after %d records: %v", len(out), err)
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &rec); err != nil {
			t.Fatalf("SSE payload: %v", err)
		}
		out = append(out, rec)
	}
	return out
}

// TestDurableSSEResumeExactlyOnce: an SSE subscriber that read part of
// the history before a restart resumes from its cursor against the
// restarted service and sees every remaining record exactly once, in
// order, with no gap marker.
func TestDurableSSEResumeExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	svc, _, err := Open(Config{MaxSessions: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	runOne(t, svc, RunRequest{App: "FFT", Scale: 0.25, Procs: 2})
	runOne(t, svc, RunRequest{App: "SOR", Scale: 0.25, Procs: 2})
	total := svc.Store().Appended()
	if total < 4 {
		t.Fatalf("only %d records; need a few to split across the restart", total)
	}

	// First subscriber reads part of the stream, then disconnects.
	resp, err := http.Get(ts.URL + "/reports/stream?since=0")
	if err != nil {
		t.Fatal(err)
	}
	part := readSSE(t, bufio.NewReader(resp.Body), int(total)/2)
	resp.Body.Close()
	cursor := part[len(part)-1].Seq

	ts.Close()
	svc.Close()

	// Restart on the same data dir; the subscriber resumes from its cursor.
	svc2, _, err := Open(Config{MaxSessions: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	resp2, err := http.Get(fmt.Sprintf("%s/reports/stream?since=%d", ts2.URL, cursor))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	rest := readSSE(t, bufio.NewReader(resp2.Body), int(total-cursor))
	want := cursor + 1
	for _, r := range rest {
		if r.Kind == KindTruncated {
			t.Fatalf("resume saw a gap/truncation record: %+v", r)
		}
		if r.Seq != want {
			t.Fatalf("resume delivered seq %d, want %d (exactly-once, in order)", r.Seq, want)
		}
		want++
	}
	if want != total+1 {
		t.Fatalf("resume ended at seq %d, want %d", want-1, total)
	}
}

// TestDurableTamperedTail: a flipped byte in the log's tail yields a
// verified truncation — the store reopens with the intact prefix plus an
// explicit truncation record (itself durable), and never panics.
func TestDurableTamperedTail(t *testing.T) {
	dir := t.TempDir()
	svc, _, err := Open(Config{MaxSessions: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	runOne(t, svc, RunRequest{App: "FFT", Scale: 0.25, Procs: 2})
	appended := svc.Store().Appended()
	svc.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	last := segs[len(segs)-1]
	b, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 0x20 // corrupt the final record's payload
	if err := os.WriteFile(last, b, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, info, err := Open(Config{MaxSessions: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if info.Truncation == "" {
		t.Fatal("tampered tail replayed without a truncation report")
	}
	if n := svc2.reg.Snapshot().Counters["svc_store_truncations_total"]; n != 1 {
		t.Fatalf("svc_store_truncations_total = %d, want 1", n)
	}
	recs, _, _ := svc2.Store().Since(0, "", 0)
	lastRec := recs[len(recs)-1]
	if lastRec.Kind != KindTruncated || lastRec.Seq != appended {
		t.Fatalf("expected an explicit truncation record at seq %d, got %+v", appended, lastRec)
	}
	svc2.Close()

	// Third open: the truncation record itself was persisted, and the log
	// is healed — no new truncation.
	svc3, info3, err := Open(Config{MaxSessions: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close()
	if info3.Truncation != "" {
		t.Fatalf("healed log truncated again: %s", info3.Truncation)
	}
	recs3, _, _ := svc3.Store().Since(0, "", 0)
	if got := recs3[len(recs3)-1]; got.Kind != KindTruncated {
		t.Fatalf("truncation record not durable: tail is %+v", got)
	}
}

// TestOpenStoreSequenceBreak: a log whose records replay out of sequence
// (e.g. hand-edited) is cut at the break, not trusted.
func TestOpenStoreSequenceBreak(t *testing.T) {
	dir := t.TempDir()
	l, _, err := castore.OpenSegLog(dir, castore.SegLogOptions{}, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{1, 2, 5} {
		b, _ := json.Marshal(Record{Seq: seq, Kind: KindSession, Detail: "x"})
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	s, info, err := OpenStore(dir, 0, castore.SegLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if info.Truncation == "" || !strings.Contains(info.Truncation, "sequence break") {
		t.Fatalf("sequence break not surfaced: %+v", info)
	}
	if s.Appended() != 3 { // 2 good records + the truncation record at seq 3
		t.Fatalf("appended = %d, want 3", s.Appended())
	}
}

// TestTenantQuota is the per-tenant admission acceptance test: a tenant
// at its quota gets a typed rejection while a second tenant's sessions
// are admitted and complete.
func TestTenantQuota(t *testing.T) {
	svc := New(Config{MaxSessions: 1, TenantMaxActive: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	// Scale 2 keeps the first session running long enough (≈ 150 ms) that
	// the quota is demonstrably held while it executes (the submits below
	// take microseconds).
	req := RunRequest{App: "FFT", Scale: 2, Procs: 2, Tenant: "noisy"}
	first, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Tenant != "noisy" {
		t.Fatalf("session tenant = %q, want noisy", first.Tenant)
	}

	// Same tenant, over quota: typed *QuotaError through the HTTP round
	// trip, with the server's Retry-After attached.
	_, err = client.Submit(ctx, req)
	var quo *QuotaError
	if !errors.As(err, &quo) {
		t.Fatalf("over-quota submit returned %T (%v), want *QuotaError", err, err)
	}
	if quo.RetryAfter <= 0 {
		t.Errorf("quota rejection lost the Retry-After header: %+v", quo)
	}

	// A different tenant is unaffected by the noisy one's quota.
	quiet, err := client.Submit(ctx, RunRequest{App: "FFT", Scale: 0.25, Procs: 2, Tenant: "quiet"})
	if err != nil {
		t.Fatalf("second tenant rejected alongside the first: %v", err)
	}
	for _, id := range []string{first.ID, quiet.ID} {
		final, err := client.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone || final.Result == nil {
			t.Fatalf("session %s ended %s", id, final.State)
		}
	}

	// The ledger: noisy admitted 1 rejected 1, quiet admitted 1 rejected 0,
	// and both quotas fully released after completion.
	svc.collect()
	snap := svc.reg.Snapshot()
	ledger := func(tenant string) [4]float64 {
		l := `{tenant="` + tenant + `"}`
		return [4]float64{
			float64(snap.Counters["svc_tenant_admitted_total"+l]), float64(snap.Counters["svc_tenant_rejected_total"+l]),
			snap.Gauges["svc_tenant_queued"+l], snap.Gauges["svc_tenant_running"+l],
		}
	}
	if got := ledger("noisy"); got != [4]float64{1, 1, 0, 0} {
		t.Errorf("noisy ledger (admitted, rejected, queued, running) = %v", got)
	}
	if got := ledger("quiet"); got != [4]float64{1, 0, 0, 0} {
		t.Errorf("quiet ledger (admitted, rejected, queued, running) = %v", got)
	}

	// After quota release the noisy tenant is admitted again.
	if _, err := svc.Submit(RunRequest{App: "FFT", Scale: 0.25, Procs: 2, Tenant: "noisy"}); err != nil {
		t.Errorf("tenant still blocked after its sessions finished: %v", err)
	}
}

// TestTenantMetrics: the /metrics surface carries the per-tenant series
// and the store durability gauges.
func TestTenantMetrics(t *testing.T) {
	svc, _, err := Open(Config{MaxSessions: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	runOne(t, svc, RunRequest{App: "FFT", Scale: 0.25, Procs: 2, Tenant: "acme"})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`svc_tenant_admitted_total{tenant="acme"} 1`,
		"svc_store_durable 1",
		"svc_store_replayed_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Series that only ever grow are declared counters; levels stay gauges.
	types := promtest.Check(t, body)
	for fam, want := range map[string]string{
		"svc_tenant_admitted_total": "counter",
		"svc_tenant_rejected_total": "counter",
		"svc_store_replayed_total":  "counter",
		"svc_tenant_queued":         "gauge",
		"svc_store_log_segments":    "gauge",
	} {
		if types[fam] != want {
			t.Errorf("# TYPE %s = %q, want %s", fam, types[fam], want)
		}
	}
}

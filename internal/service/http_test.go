package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lrcrace/internal/telemetry/promtest"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server, *Client) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts, NewClient(ts.URL)
}

// TestHTTPSessionLifecycle drives one session end to end over the wire:
// submit, long-poll to completion, read the result and its reports.
func TestHTTPSessionLifecycle(t *testing.T) {
	_, _, client := newTestServer(t, Config{MaxSessions: 2})
	ctx := context.Background()

	info, err := client.Submit(ctx, RunRequest{App: "ChaosMW", Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateQueued && info.State != StateRunning {
		t.Fatalf("fresh session state %s", info.State)
	}
	final, err := client.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil || final.Result.Status != "ok" {
		t.Fatalf("final session: %+v", final)
	}
	if len(final.Races) == 0 || final.Result.Races != len(final.Races) {
		t.Fatalf("ChaosMW session carried %d race reports (result says %d)", len(final.Races), final.Result.Races)
	}

	batch, err := client.Reports(ctx, info.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var races int
	for _, r := range batch.Records {
		if r.Kind == KindRace {
			races++
		}
	}
	if races != len(final.Races) || batch.Lost != 0 {
		t.Fatalf("report batch: %d race records, lost %d; session has %d", races, batch.Lost, len(final.Races))
	}
}

// TestHTTPTypedErrors: admission failures map onto machine-readable
// statuses — 400 invalid_request, 503 overloaded with Retry-After, 404
// not_found — and the client decodes them back into the same typed errors
// Service.Submit returns in-process.
func TestHTTPTypedErrors(t *testing.T) {
	svc, ts, client := newTestServer(t, Config{MaxSessions: 1, QueueDepth: 1, SessionTimeout: 5 * time.Second})
	ctx := context.Background()

	resp, err := http.Post(ts.URL+"/sessions", "application/json",
		strings.NewReader(`{"app":"NoSuchApp"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ae apiError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || ae.Code != codeInvalidRequest {
		t.Fatalf("invalid request: status %d code %q", resp.StatusCode, ae.Code)
	}
	var reqErr *RequestError
	if _, err := client.Submit(ctx, RunRequest{App: "NoSuchApp"}); !errors.As(err, &reqErr) {
		t.Fatalf("client decoded %v, want *RequestError", err)
	}

	// Fill the pool and the queue, then overflow it.
	slow, err := client.Submit(ctx, RunRequest{App: "TSP", Scale: 0.25, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Session(slow.ID).State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("slow session never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := client.Submit(ctx, RunRequest{App: "FFT", Scale: 0.25, Procs: 2}); err != nil {
		t.Fatalf("queue-filling submission rejected: %v", err)
	}
	resp2, err := http.Post(ts.URL+"/sessions", "application/json",
		strings.NewReader(`{"app":"FFT","scale":0.25,"procs":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var ae2 apiError
	if err := json.NewDecoder(resp2.Body).Decode(&ae2); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusServiceUnavailable || ae2.Code != codeOverloaded {
		t.Fatalf("overflow: status %d code %q", resp2.StatusCode, ae2.Code)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("503 carried no Retry-After")
	}
	var ovl *OverloadError
	if _, err := client.Submit(ctx, RunRequest{App: "FFT", Scale: 0.25, Procs: 2}); !errors.As(err, &ovl) {
		t.Fatalf("client decoded %v, want *OverloadError", err)
	}

	if resp, err := http.Get(ts.URL + "/sessions/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown session: status %d", resp.StatusCode)
		}
	}
}

// TestHTTPUnknownFieldRejected: a request with a misspelled field is a 400
// invalid_request naming the field, not a run of whatever cell the
// remaining fields spell (here the flat, serial FFT cell instead of a tree
// barrier with a sharded check).
func TestHTTPUnknownFieldRejected(t *testing.T) {
	svc, ts, _ := newTestServer(t, Config{MaxSessions: 1})
	resp, err := http.Post(ts.URL+"/sessions", "application/json",
		strings.NewReader(`{"app":"FFT","scale":0.05,"procs":2,"barier_tree":2,"shardedd":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ae apiError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || ae.Code != codeInvalidRequest {
		t.Fatalf("misspelled field: status %d code %q (%s)", resp.StatusCode, ae.Code, ae.Error)
	}
	if !strings.Contains(ae.Error, `"barier_tree"`) {
		t.Errorf("error %q does not name the unknown field", ae.Error)
	}
	if n := len(svc.Sessions()); n != 0 {
		t.Errorf("%d sessions admitted from a rejected request", n)
	}
}

// TestHTTPFinishedSessionsEvicted: beyond KeepDone, admission evicts the
// oldest finished sessions. They answer 404, the newer ones stay
// queryable, and the evicted sessions' records stay in the report store.
func TestHTTPFinishedSessionsEvicted(t *testing.T) {
	svc, ts, client := newTestServer(t, Config{MaxSessions: 1, KeepDone: 2})
	req := RunRequest{App: "FFT", Scale: 0.25, Procs: 2}
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, runOne(t, svc, req).ID())
	}
	// Eviction runs at admission: this submission finds four finished
	// sessions and keeps the newest two.
	runOne(t, svc, req)

	for i, id := range ids {
		resp, err := http.Get(ts.URL + "/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusOK
		if i < 2 {
			want = http.StatusNotFound
		}
		if resp.StatusCode != want {
			t.Errorf("session %d (%s): status %d, want %d", i, id, resp.StatusCode, want)
		}
	}
	for _, id := range ids[:2] {
		batch, err := client.Reports(context.Background(), id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var finished bool
		for _, r := range batch.Records {
			finished = finished || (r.Kind == KindSession && strings.HasPrefix(r.Detail, "finished: "))
		}
		if !finished {
			t.Errorf("evicted session %s lost its store records: %+v", id, batch.Records)
		}
	}
}

// TestHTTPReportsLongPoll: a /reports?wait= request parked on an empty
// window returns as soon as a record lands.
func TestHTTPReportsLongPoll(t *testing.T) {
	svc, _, client := newTestServer(t, Config{MaxSessions: 1})
	ctx := context.Background()

	type res struct {
		batch ReportBatch
		err   error
	}
	ch := make(chan res, 1)
	go func() {
		// The store is empty; this parks until the append below.
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
			client.Base+"/reports?since=0&wait=30s", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			ch <- res{err: err}
			return
		}
		defer resp.Body.Close()
		var b ReportBatch
		err = json.NewDecoder(resp.Body).Decode(&b)
		ch <- res{batch: b, err: err}
	}()

	waitSubscribers(t, svc.Store(), 1) // the poller is attached: its window was empty
	svc.Store().Append(Record{Session: "x", Kind: KindSession, Detail: "poke"})

	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.batch.Records) != 1 || r.batch.Records[0].Detail != "poke" {
			t.Fatalf("long-poll returned %+v", r.batch)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never woke up")
	}
}

// waitSubscribers blocks until n readers are attached to the store.
func waitSubscribers(t *testing.T, st *Store, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); st.Subscribers() != n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d readers attached, want %d", st.Subscribers(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// sseRecords reads SSE frames off a stream until the session's "finished"
// lifecycle record arrives (or the context ends), returning every decoded
// record in arrival order.
func sseRecords(t *testing.T, ctx context.Context, url string, doneSession string) []Record {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	var out []Record
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rec); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		out = append(out, rec)
		if rec.Session == doneSession && rec.Kind == KindSession && strings.HasPrefix(rec.Detail, "finished") {
			return out
		}
	}
	t.Fatalf("stream ended before session %s finished: %v", doneSession, sc.Err())
	return nil
}

// TestHTTPStreamMidRunExactlyOnce is the live-subscription acceptance
// test: a subscriber who connects while a session is already emitting
// must receive every one of that session's records exactly once, in
// sequence order — the catch-up replay and the live tail must meet with
// neither a gap nor a duplicate.
func TestHTTPStreamMidRunExactlyOnce(t *testing.T) {
	svc, ts, client := newTestServer(t, Config{MaxSessions: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	info, err := client.Submit(ctx, RunRequest{App: "ChaosTSP", Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Connect mid-run: wait for the session to start, then give it a beat
	// to emit some records before the stream attaches.
	for svc.Session(info.ID).State() == StateQueued {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)

	got := sseRecords(t, ctx, ts.URL+"/reports/stream?since=0&session="+info.ID, info.ID)

	seen := map[uint64]bool{}
	var prev uint64
	for _, rec := range got {
		if rec.Kind == KindTruncated {
			t.Fatalf("stream reported truncation under default retention: %+v", rec)
		}
		if seen[rec.Seq] {
			t.Fatalf("record %d delivered twice", rec.Seq)
		}
		seen[rec.Seq] = true
		if rec.Seq <= prev {
			t.Fatalf("out-of-order delivery: %d after %d", rec.Seq, prev)
		}
		prev = rec.Seq
	}
	// Completeness: the stream saw exactly the session's store records.
	want, lost, _ := svc.Store().Since(0, info.ID, 0)
	if lost != 0 {
		t.Fatalf("store lost %d records", lost)
	}
	if len(got) != len(want) {
		t.Fatalf("stream delivered %d records, store holds %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq {
			t.Fatalf("stream[%d].Seq = %d, store %d", i, got[i].Seq, want[i].Seq)
		}
	}
	var races int
	for _, rec := range got {
		if rec.Kind == KindRace {
			races++
		}
	}
	final, err := client.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if races != final.Result.Races {
		t.Fatalf("stream carried %d race records, session result says %d", races, final.Result.Races)
	}
}

// TestHTTPStreamGapHealing: a stream that cannot keep up with a burst
// still delivers everything — a reader holds no records, so there is no
// buffer to overflow and no gap to heal: it reads on from its cursor.
func TestHTTPStreamGapHealing(t *testing.T) {
	svc, ts, _ := newTestServer(t, Config{MaxSessions: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Park a stream on the empty store first, then burst appends at it:
	// one pending wake-up stands for however many records land before the
	// reader gets to run.
	ready := make(chan struct{})
	done := make(chan []Record, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/reports/stream?since=0", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- nil
			return
		}
		defer resp.Body.Close()
		close(ready)
		var out []Record
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var rec Record
			json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rec)
			out = append(out, rec)
			if len(out) == 100 {
				break
			}
		}
		done <- out
	}()
	<-ready
	// The response headers are out, so the reader is attached.
	if n := svc.Store().Subscribers(); n != 1 {
		t.Fatalf("%d readers attached once the stream answered, want 1", n)
	}
	for i := 0; i < 100; i++ {
		svc.Store().Append(Record{Session: "burst", Kind: KindRace, Addr: uint64(i)})
	}
	select {
	case got := <-done:
		if len(got) != 100 {
			t.Fatalf("stream delivered %d records, want 100", len(got))
		}
		for i, rec := range got {
			if rec.Seq != uint64(i+1) {
				t.Fatalf("stream[%d].Seq = %d, want %d (exactly-once in order)", i, rec.Seq, i+1)
			}
		}
	case <-ctx.Done():
		t.Fatal("stream never delivered the burst")
	}
}

// TestHTTPMetrics: the service /metrics surface carries the service
// gauges and session-labeled telemetry series.
func TestHTTPMetrics(t *testing.T) {
	_, ts, client := newTestServer(t, Config{MaxSessions: 1})
	ctx := context.Background()
	info, err := client.Submit(ctx, RunRequest{App: "FFT", Scale: 0.25, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"svc_sessions_done 1",
		"svc_store_appended_total",
		fmt.Sprintf(`session="%s"`, info.ID),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if types := promtest.Check(t, body); types["svc_store_appended_total"] != "counter" || types["svc_sessions_done"] != "gauge" {
		t.Errorf("# TYPE svc_store_appended_total = %q, svc_sessions_done = %q; want counter, gauge",
			types["svc_store_appended_total"], types["svc_sessions_done"])
	}
}

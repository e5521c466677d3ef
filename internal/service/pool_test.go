package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lrcrace/internal/sweep"
	"lrcrace/internal/telemetry"
)

// finishedSession runs one detection-on Water session to completion over
// HTTP and returns it with the server's URL.
func finishedSession(t *testing.T) (*Session, string) {
	t.Helper()
	svc, ts, client := newTestServer(t, Config{MaxSessions: 1})
	yes := true
	info, err := client.Submit(context.Background(), RunRequest{App: "Water", Scale: 0.3, Procs: 4, Detect: &yes})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil || final.Result.Status != sweep.StatusOK {
		t.Fatalf("session ended %+v", final)
	}
	return svc.Session(info.ID), ts.URL
}

// TestFlightOfFinishedSession: /flight of a finished session serves the
// window its recorder kept at Seal, which is the dump an unsealed recorder
// of the same run prints (a run repeats exactly, so its events do too).
func TestFlightOfFinishedSession(t *testing.T) {
	sess, url := finishedSession(t)
	resp, err := http.Get(url + "/flight/" + sess.id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/flight: status %d, %v", resp.StatusCode, err)
	}

	sess.mu.Lock()
	sealed := sess.rec
	sess.mu.Unlock()
	if n := len(sealed.Events()); n != 256 {
		t.Fatalf("finished session's recorder retains %d events, want its 256-event flight window", n)
	}

	rec := telemetry.New(telemetry.Config{Procs: sess.cfg.Procs, Cap: sweep.TelemetryCap, FlightSink: io.Discard})
	if res, _ := sweep.RunGuarded(context.Background(), sess.id, sess.cfg, rec, time.Minute); res.Status != sweep.StatusOK {
		t.Fatalf("reference run: %+v", res)
	}
	var want bytes.Buffer
	rec.DumpFlight(&want, "on-demand dump over /flight")
	if !strings.Contains(want.String(), "last 256 of ") {
		t.Fatalf("reference dump does not fill the window:\n%s", want.String())
	}
	if string(got) != want.String() {
		t.Fatalf("/flight of the finished session differs from the unsealed dump:\n--- got\n%s--- want\n%s", got, want.String())
	}
}

// TestWriteJSONBytesUnchanged: the pooled encoder writes exactly what an
// indented json.Encoder on the response writes, reply after reply.
func TestWriteJSONBytesUnchanged(t *testing.T) {
	sess, _ := finishedSession(t)
	info := sess.Info()
	if info.Result == nil || info.Result.Metrics == nil || len(info.Races) == 0 {
		t.Fatalf("session info lacks a result with metrics and races: %+v", info)
	}
	for round := 0; round < 2; round++ {
		for _, v := range []interface{}{
			info,
			ReportBatch{Records: []Record{
				{Seq: 7, Session: "s-1", Kind: KindRace, Tenant: "t", VT: 99, Addr: 0x40, Epoch: 3, WriteWrite: true},
				{Seq: 8, Session: "s-1", Kind: KindSession, Detail: "finished: <ok> & \"done\"  "},
			}, Next: 8, Lost: 2},
			apiError{Code: codeOverloaded, Error: "queue full (64 waiting)"},
		} {
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
			w := httptest.NewRecorder()
			writeJSON(w, http.StatusAccepted, v)
			if w.Code != http.StatusAccepted || w.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("%T: status %d, content type %q", v, w.Code, w.Header().Get("Content-Type"))
			}
			if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
				t.Fatalf("%T: writeJSON wrote\n%s\nwant\n%s", v, w.Body.Bytes(), want.Bytes())
			}
		}
	}
}

// TestSSEFramesUnchanged: a stream's reused frame buffer and encoder write
// each record exactly as json.Marshal and Fprintf("id: %d\ndata: %s\n\n").
func TestSSEFramesUnchanged(t *testing.T) {
	recs := []Record{
		{Seq: 1, Session: "s-1", Kind: KindSession, Tenant: "acme", Detail: "started"},
		{Seq: 2, Session: "s-1", Kind: KindRace, VT: 123456, Addr: 0xdeadbeef, Epoch: 4, WriteWrite: true},
		{Seq: 18446744073709551615, Session: "s-2", Kind: KindTrip, Detail: "BarrierTimeout: <p2> & \"p3\"   é"},
		{Seq: 40, Session: "", Kind: KindTruncated},
	}
	var got, want, frame bytes.Buffer
	enc := json.NewEncoder(&frame)
	for _, rec := range recs {
		writeSSE(&got, &frame, enc, rec)
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "id: %d\ndata: %s\n\n", rec.Seq, b)
	}
	if got.String() != want.String() {
		t.Fatalf("SSE frames:\n%q\nwant\n%q", got.String(), want.String())
	}
}

// TestClientReplyBufferReuse: a value Client.call decoded stays intact
// after the next call reuses the pooled reply buffer.
func TestClientReplyBufferReuse(t *testing.T) {
	replies := []string{
		`{"id":"first-session","tenant":"tenant-one","state":"done","request":{"app":"Water"}}`,
		`{"id":"XXXXXXXXXXXXX","tenant":"YYYYYYYYYY","state":"queued","request":{"app":"ZZZZZ"}}`,
	}
	call := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, replies[call%len(replies)])
		call++
	}))
	defer ts.Close()
	c := NewClient(ts.URL)

	var first, second SessionInfo
	if err := c.call(context.Background(), http.MethodGet, "/", nil, &first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.call(context.Background(), http.MethodGet, "/", nil, &second); err != nil {
			t.Fatal(err)
		}
	}
	if first.ID != "first-session" || first.Tenant != "tenant-one" || first.Request.App != "Water" {
		t.Fatalf("first reply changed after later calls: %+v", first)
	}
}

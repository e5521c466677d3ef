package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"lrcrace/internal/telemetry"
)

// Handler returns the service's HTTP surface, sharing one mux with the
// observability endpoints the sweep established:
//
//	POST /sessions                — submit a RunRequest; 202 + SessionInfo,
//	                                400 (invalid request) or 503 (overloaded)
//	GET  /sessions                — list retained sessions
//	GET  /sessions/{id}           — one session; ?wait=<dur> long-polls
//	                                until it reaches a terminal state
//	GET  /reports                 — report-store batch: ?since=<seq>,
//	                                ?session=<id>, ?max=<n>; ?wait=<dur>
//	                                long-polls for new records
//	GET  /reports/stream          — SSE: one `data:` record per line,
//	                                ?since/?session as above (the same
//	                                cursor loop as the long-poll)
//	GET  /metrics                 — Prometheus text: the service's own
//	                                registry (svc_*), then every session's
//	                                series, session-labeled
//	GET  /flight/{id}             — flight-recorder dump of one session
//
// Commands wrap this handler with the shared /healthz and /version
// endpoints (cmd/internal/cli).
func (svc *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", svc.handleSubmit)
	mux.HandleFunc("GET /sessions", svc.handleSessions)
	mux.HandleFunc("GET /sessions/{id}", svc.handleSession)
	mux.HandleFunc("GET /reports", svc.handleReports)
	mux.HandleFunc("GET /reports/stream", svc.handleStream)
	mux.HandleFunc("GET /metrics", svc.handleMetrics)
	mux.HandleFunc("GET /flight/{id}", svc.handleFlight)
	// The dispatcher health-probes nodes through /healthz; commands shadow
	// this with cli.Mux's identical liveness endpoint, but the service
	// handler answers on its own so a bare Handler() is a complete node.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "lrcrace detection service: POST /sessions, GET /sessions[/{id}], /reports[/stream], /metrics, /flight/{id}\n")
	})
	return mux
}

// apiError is the JSON error body; Code is machine-readable so clients
// (the remote sweep dispatcher) can distinguish rejection classes.
type apiError struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// Error codes carried in apiError.Code.
const (
	codeInvalidRequest = "invalid_request"
	codeOverloaded     = "overloaded"
	codeQuota          = "tenant_quota"
	codeShuttingDown   = "shutting_down"
	codeNotFound       = "not_found"
)

// jsonBuf is an encoder with the buffer it writes to, reused across
// replies through jsonBufs.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledBuf is the largest buffer a reply or stream hands back to its
// pool; a rare huge reply is left to the collector rather than pinned.
const maxPooledBuf = 1 << 20

var jsonBufs = sync.Pool{New: func() any {
	jb := new(jsonBuf)
	jb.enc = json.NewEncoder(&jb.buf)
	jb.enc.SetIndent("", "  ")
	return jb
}}

// writeJSON replies with v, indented, in one Write. A value that does not
// encode leaves the body empty, as encoding straight to w did.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	jb := jsonBufs.Get().(*jsonBuf)
	jb.buf.Reset()
	jb.enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(jb.buf.Bytes())
	if jb.buf.Cap() <= maxPooledBuf {
		jsonBufs.Put(jb)
	}
}

// writeAdmissionError maps Submit's typed errors onto HTTP statuses: a
// *RequestError can never succeed (400), a *QuotaError affects only its
// tenant (429 + Retry-After), overload and shutdown are retryable by
// anyone (503 + Retry-After).
func writeAdmissionError(w http.ResponseWriter, err error) {
	var reqErr *RequestError
	var ovlErr *OverloadError
	var quoErr *QuotaError
	switch {
	case errors.As(err, &reqErr):
		writeJSON(w, http.StatusBadRequest, apiError{Code: codeInvalidRequest, Error: err.Error()})
	case errors.As(err, &quoErr):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{Code: codeQuota, Error: err.Error()})
	case errors.As(err, &ovlErr):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, apiError{Code: codeOverloaded, Error: err.Error()})
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Code: codeShuttingDown, Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, apiError{Code: "internal", Error: err.Error()})
	}
}

func (svc *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// A misspelled field would otherwise be dropped, and the session would
	// run some other cell than the one asked for.
	var req RunRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Code: codeInvalidRequest, Error: "parsing request body: " + err.Error()})
		return
	}
	sess, err := svc.Submit(req)
	if err != nil {
		writeAdmissionError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, sess.Info())
}

func (svc *Service) handleSessions(w http.ResponseWriter, _ *http.Request) {
	sessions := svc.Sessions()
	out := make([]SessionInfo, 0, len(sessions))
	for _, s := range sessions {
		info := s.Info()
		info.Races = nil // keep the listing lean; fetch one session for reports
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (svc *Service) handleSession(w http.ResponseWriter, r *http.Request) {
	sess := svc.Session(r.PathValue("id"))
	if sess == nil {
		writeJSON(w, http.StatusNotFound, apiError{Code: codeNotFound, Error: "no such session (evicted or never admitted)"})
		return
	}
	if wait := parseWait(r); wait > 0 {
		select {
		case <-sess.Done():
		case <-time.After(wait):
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

// parseWait bounds a ?wait=<duration> long-poll window to 60s.
func parseWait(r *http.Request) time.Duration {
	d, err := time.ParseDuration(r.URL.Query().Get("wait"))
	if err != nil || d <= 0 {
		return 0
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// ReportBatch is the /reports response: the records, the cursor to pass
// back as since, and loss accounting (records dropped by store retention
// inside the requested window).
type ReportBatch struct {
	Records []Record `json:"records"`
	// Next is the last returned record's sequence number (or the store
	// tail when the batch is empty): the next request's since.
	Next uint64 `json:"next"`
	// Lost is how many records between since and the oldest retained one
	// were discarded by retention; 0 means the batch is gapless.
	Lost uint64 `json:"lost,omitempty"`
}

func (svc *Service) handleReports(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since, _ := strconv.ParseUint(q.Get("since"), 10, 64)
	session := q.Get("session")
	max, _ := strconv.Atoi(q.Get("max"))
	if max <= 0 || max > 10000 {
		max = 10000
	}
	// One read of the reader loop: without ?wait the deadline has already
	// passed, so an empty window answers at once instead of parking.
	sub := svc.store.Subscribe(session, since)
	defer sub.Close()
	ctx, cancel := context.WithTimeout(r.Context(), parseWait(r))
	defer cancel()
	recs, lost, next, _ := sub.poll(ctx, max)
	if r.Context().Err() != nil {
		return
	}
	if recs == nil {
		recs = []Record{}
	}
	writeJSON(w, http.StatusOK, ReportBatch{Records: recs, Next: next, Lost: lost})
}

// handleStream is the SSE feed: the reader loop from ?since until the
// client goes away. Catching up and tailing live are the same reads, so
// every retained record is delivered exactly once, in sequence order, and
// a retention overrun arrives as one explicit truncated record.
func (svc *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	q := r.URL.Query()
	since, _ := strconv.ParseUint(q.Get("since"), 10, 64)
	// Attach before the headers go out: a client that has its response is
	// a client whose reader Append already wakes.
	sub := svc.store.Subscribe(q.Get("session"), since)
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	var frame bytes.Buffer // one frame at a time, reused across records
	enc := json.NewEncoder(&frame)
	for {
		recs, err := sub.Next(r.Context())
		if err != nil {
			return
		}
		for _, rec := range recs {
			writeSSE(w, &frame, enc, rec)
		}
		fl.Flush()
	}
}

// writeSSE writes rec as one SSE frame, "id: <seq>\ndata: <json>\n\n",
// built in frame by enc, which writes there.
func writeSSE(w io.Writer, frame *bytes.Buffer, enc *json.Encoder, rec Record) {
	frame.Reset()
	frame.WriteString("id: ")
	frame.Write(strconv.AppendUint(frame.AvailableBuffer(), rec.Seq, 10))
	frame.WriteString("\ndata: ")
	enc.Encode(rec) // a Record of strings and integers always encodes; Encode ends the line
	frame.WriteByte('\n')
	w.Write(frame.Bytes())
}

func (svc *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	svc.collect()
	svc.reg.WriteProm(w)
	telemetry.WriteKeyedProm(w, "session", svc.snapshots())
}

func (svc *Service) handleFlight(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec := svc.flightRecorder(id)
	if rec == nil {
		http.Error(w, fmt.Sprintf("no recorder for session %q (not started yet?)", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rec.DumpFlight(w, "on-demand dump over /flight")
}

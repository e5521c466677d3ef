package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lrcrace/internal/sweep"
)

func hdr(kv ...string) http.Header {
	h := http.Header{}
	for i := 0; i+1 < len(kv); i += 2 {
		h.Set(kv[i], kv[i+1])
	}
	return h
}

// TestAPIErrorDecode covers the client's error decode on well-formed,
// malformed, and empty bodies: every shape must degrade to a useful typed
// or descriptive error — never a blank message, never a panic.
func TestAPIErrorDecode(t *testing.T) {
	mustJSON := func(code, msg string) []byte {
		b, _ := json.Marshal(apiError{Code: code, Error: msg})
		return b
	}
	t.Run("typed decode", func(t *testing.T) {
		err := apiErrorOf(400, nil, mustJSON(codeInvalidRequest, "no application named"))
		var reqErr *RequestError
		if !errors.As(err, &reqErr) || reqErr.Reason != "no application named" {
			t.Fatalf("got %T %v", err, err)
		}
		err = apiErrorOf(503, hdr("Retry-After", "3"), mustJSON(codeOverloaded, "queue full"))
		var ovl *OverloadError
		if !errors.As(err, &ovl) || ovl.RetryAfter != 3*time.Second || ovl.Detail != "queue full" {
			t.Fatalf("got %T %+v", err, ovl)
		}
		err = apiErrorOf(429, hdr("Retry-After", "2"), mustJSON(codeQuota, `tenant "a" over quota`))
		var quo *QuotaError
		if !errors.As(err, &quo) || quo.RetryAfter != 2*time.Second {
			t.Fatalf("got %T %+v", err, quo)
		}
		if err = apiErrorOf(503, nil, mustJSON(codeShuttingDown, "bye")); !errors.Is(err, ErrClosed) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("malformed 503 stays retryable", func(t *testing.T) {
		err := apiErrorOf(503, hdr("Retry-After", "5"), []byte("<html>proxy overload page</html>"))
		var ovl *OverloadError
		if !errors.As(err, &ovl) {
			t.Fatalf("non-JSON 503 lost its type: %T %v", err, err)
		}
		if ovl.RetryAfter != 5*time.Second {
			t.Errorf("Retry-After dropped: %+v", ovl)
		}
		if !strings.Contains(err.Error(), "proxy overload page") {
			t.Errorf("raw message lost: %v", err)
		}
	})
	t.Run("malformed 429 stays retryable", func(t *testing.T) {
		err := apiErrorOf(429, nil, []byte(`{"broken json`))
		var quo *QuotaError
		if !errors.As(err, &quo) {
			t.Fatalf("non-JSON 429 lost its type: %T %v", err, err)
		}
	})
	t.Run("empty bodies", func(t *testing.T) {
		err := apiErrorOf(503, nil, nil)
		var ovl *OverloadError
		if !errors.As(err, &ovl) || err.Error() == "" {
			t.Fatalf("empty 503 body: %T %q", err, err.Error())
		}
		err = apiErrorOf(500, nil, []byte("   \n"))
		if err == nil || !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), "empty") {
			t.Fatalf("empty 500 body: %v", err)
		}
	})
	t.Run("non-JSON 400 keeps the message", func(t *testing.T) {
		err := apiErrorOf(400, nil, []byte("plain text complaint"))
		if err == nil || !strings.Contains(err.Error(), "plain text complaint") {
			t.Fatalf("got %v", err)
		}
		var reqErr *RequestError
		if errors.As(err, &reqErr) {
			t.Error("unparseable 400 must not be typed as a validated rejection")
		}
	})
	t.Run("long bodies truncated", func(t *testing.T) {
		err := apiErrorOf(502, nil, []byte(strings.Repeat("x", 5000)))
		if len(err.Error()) > 300 {
			t.Fatalf("error message is %d bytes; snippet not truncated", len(err.Error()))
		}
	})
	t.Run("retry-after parsing", func(t *testing.T) {
		for _, bad := range []string{"", "soon", "-2", "Wed, 21 Oct 2015 07:28:00 GMT"} {
			if d := parseRetryAfter(hdr("Retry-After", bad)); d != 0 {
				t.Errorf("Retry-After %q parsed to %v, want 0", bad, d)
			}
		}
		if d := parseRetryAfter(nil); d != 0 {
			t.Errorf("nil header: %v", d)
		}
		if d := parseRetryAfter(hdr("Retry-After", " 4 ")); d != 4*time.Second {
			t.Errorf("padded value: %v", d)
		}
	})
}

// busyNode is a stub detection service that answers its first `rejects`
// submissions with 503 (plus Retry-After: 1 when retryAfter is set), then
// admits session "s1", which is done at once with an ok result for cell.
// Every submission must carry tenant. It counts submissions.
func busyNode(t *testing.T, cell sweep.Cell, tenant string, rejects int32, retryAfter bool) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var submits atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {})
	mux.HandleFunc("POST /sessions", func(w http.ResponseWriter, r *http.Request) {
		var req RunRequest
		json.NewDecoder(r.Body).Decode(&req)
		if req.Tenant != tenant {
			t.Errorf("submission carries tenant %q, want %q", req.Tenant, tenant)
		}
		if submits.Add(1) <= rejects {
			if retryAfter {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("busy, come back"))
			return
		}
		writeJSON(w, http.StatusAccepted, SessionInfo{ID: "s1", State: StateQueued})
	})
	mux.HandleFunc("GET /sessions/s1", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, SessionInfo{ID: "s1", State: StateDone,
			Result: &sweep.CellResult{ID: cell.ID, Status: sweep.StatusOK}})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &submits
}

// TestClientRunCellMakesOneAttempt: the client never retries. A busy
// node's 503 comes straight back as the typed rejection, Retry-After
// attached, after one submission; retrying is the dispatcher's job.
func TestClientRunCellMakesOneAttempt(t *testing.T) {
	cell := sweep.Cell{ID: "FFT-test", App: "FFT", Scale: 0.25, Procs: 2}
	ts, submits := busyNode(t, cell, "team-a", 1, true)
	client := NewClient(ts.URL)
	client.Tenant = "team-a"
	_, err := client.RunCell(context.Background(), cell, nil, 0)
	var ovl *OverloadError
	if !errors.As(err, &ovl) || ovl.RetryAfter != time.Second {
		t.Fatalf("got %T %v, want *OverloadError with Retry-After 1s", err, err)
	}
	if got := submits.Load(); got != 1 {
		t.Errorf("submits = %d, want 1", got)
	}
}

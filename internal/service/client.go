package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"lrcrace/internal/sweep"
)

// Client talks to a running detection service: submit sessions, wait for
// their results, tail the report store. It is the dispatch half of
// distributed sweeps — `sweeprun -remote <addr>` runs every pending cell
// through RunCell (behind a Dispatcher) as the sweep's executor.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:8321".
	Base string
	// HTTP is the underlying client; nil → a client with a 90s timeout
	// (long-polls are capped at 60s server-side).
	HTTP *http.Client
	// Tenant, when non-empty, is stamped on every submitted request so the
	// service accounts the sessions (and enforces quotas) against it.
	Tenant string
}

// NewClient builds a client for addr ("host:port" or a full http URL).
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{Base: strings.TrimRight(addr, "/"), HTTP: &http.Client{Timeout: 90 * time.Second}}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 90 * time.Second}
}

// apiErrorOf decodes a non-2xx response into the matching typed error.
// Malformed and empty bodies still yield useful errors: a 503 or 429
// degrades to the typed retryable error (so dispatch backoff keeps
// working even through a proxy that rewrote the body) with the raw
// message as Detail, everything else to a descriptive untyped error. The
// Retry-After header, when parseable, is surfaced on the typed error.
func apiErrorOf(status int, header http.Header, body []byte) error {
	retryAfter := parseRetryAfter(header)
	var ae apiError
	if json.Unmarshal(body, &ae) == nil && ae.Code != "" {
		switch ae.Code {
		case codeInvalidRequest:
			return &RequestError{Reason: ae.Error}
		case codeQuota:
			return &QuotaError{RetryAfter: retryAfter, Detail: ae.Error}
		case codeOverloaded:
			return &OverloadError{RetryAfter: retryAfter, Detail: ae.Error}
		case codeShuttingDown:
			return ErrClosed
		}
		return fmt.Errorf("service: http %d: %s", status, ae.Error)
	}
	detail := string(bytes.TrimSpace(body))
	if len(detail) > 200 {
		detail = detail[:200] + "..."
	}
	switch status {
	case http.StatusServiceUnavailable:
		return &OverloadError{RetryAfter: retryAfter, Detail: nonEmpty(detail, "503 with unreadable body")}
	case http.StatusTooManyRequests:
		return &QuotaError{RetryAfter: retryAfter, Detail: nonEmpty(detail, "429 with unreadable body")}
	}
	if detail == "" {
		return fmt.Errorf("service: http %d (empty error body)", status)
	}
	return fmt.Errorf("service: http %d: %s", status, detail)
}

func nonEmpty(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}

// parseRetryAfter reads an integer-seconds Retry-After header; 0 when
// absent or in the (unsupported) HTTP-date form.
func parseRetryAfter(h http.Header) time.Duration {
	if h == nil {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(h.Get("Retry-After")))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// call is the client's one round trip: send in (when non-nil) as a JSON
// body, decode a 2xx reply into out (nil → discard it), and turn any other
// status into apiErrorOf's typed error.
func (c *Client) call(ctx context.Context, method, path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return err
	case resp.StatusCode/100 != 2:
		return apiErrorOf(resp.StatusCode, resp.Header, reply)
	case out == nil:
		return nil
	}
	return json.Unmarshal(reply, out)
}

// Health checks the service's /healthz endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.call(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Submit opens a session. The returned errors mirror Service.Submit:
// *RequestError (never retryable), *OverloadError and *QuotaError (the
// node is busy: retryable after backoff), and ErrClosed (the node is
// going away).
func (c *Client) Submit(ctx context.Context, r RunRequest) (SessionInfo, error) {
	if r.Tenant == "" {
		r.Tenant = c.Tenant
	}
	var info SessionInfo
	err := c.call(ctx, http.MethodPost, "/sessions", r, &info)
	return info, err
}

// Wait long-polls the session until it reaches a terminal state (or ctx
// ends), returning its final info.
func (c *Client) Wait(ctx context.Context, id string) (SessionInfo, error) {
	for {
		var info SessionInfo
		if err := c.call(ctx, http.MethodGet, "/sessions/"+id+"?wait=30s", nil, &info); err != nil {
			return SessionInfo{}, err
		}
		switch info.State {
		case StateDone, StateCanceled:
			return info, nil
		}
		if err := ctx.Err(); err != nil {
			return SessionInfo{}, err
		}
	}
}

// Reports fetches one report-store batch (see ReportBatch).
func (c *Client) Reports(ctx context.Context, session string, since uint64, max int) (ReportBatch, error) {
	path := fmt.Sprintf("/reports?since=%d&max=%d", since, max)
	if session != "" {
		path += "&session=" + session
	}
	var batch ReportBatch
	err := c.call(ctx, http.MethodGet, path, nil, &batch)
	return batch, err
}

// RunCell runs one sweep cell remotely, once: submit, wait, and return the
// cell's result — interchangeable with running the cell in a local sweep
// pool, since the cell's request carries everything the local run would
// use. It never retries: an admission rejection comes back as the typed
// *OverloadError or *QuotaError, and the Dispatcher decides when, and on
// which node, to try again.
func (c *Client) RunCell(ctx context.Context, cell sweep.Cell) (*sweep.CellResult, error) {
	info, err := c.Submit(ctx, cell.Request)
	if err != nil {
		return nil, err
	}
	final, err := c.Wait(ctx, info.ID)
	if err != nil {
		return nil, err
	}
	if final.State == StateCanceled || final.Result == nil {
		return nil, fmt.Errorf("service: session %s ended %s without a result", info.ID, final.State)
	}
	return final.Result, nil
}

package service

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lrcrace/internal/sweep"
)

// failoverPlan is the grid the dispatch tests run: deterministic apps, so
// every execution — local pool, healthy multi-node, multi-node with a
// kill — must produce byte-identical manifests and metrics. The real
// message delay keeps each cell running long enough that a mid-run kill
// demonstrably interrupts sessions.
func failoverPlan() *sweep.Plan {
	return &sweep.Plan{
		Apps:           []string{"FFT", "SOR"},
		Scales:         []float64{0.25},
		Procs:          []int{2},
		Detect:         []bool{true, false},
		RealMsgDelayUS: 1000,
	}
}

// runLocalReference runs the plan in a local sweep pool and returns its
// checkpoint dir, summary, and metrics document.
func runLocalReference(t *testing.T, ctx context.Context) (string, *sweep.Summary, []byte) {
	t.Helper()
	dir := t.TempDir()
	local, err := sweep.New(failoverPlan(), sweep.Options{Workers: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := local.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.OK != sum.Total {
		t.Fatalf("local reference not clean: %+v", sum)
	}
	var buf bytes.Buffer
	if err := local.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return dir, sum, buf.Bytes()
}

// assertSweepMatchesLocal compares a dispatched sweep's manifest and
// metrics byte-for-byte against the local reference.
func assertSweepMatchesLocal(t *testing.T, s *sweep.Sweep, dir, localDir string, localMetrics []byte) {
	t.Helper()
	mLocal, err := os.ReadFile(filepath.Join(localDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	mRemote, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mLocal, mRemote) {
		t.Error("manifest.json differs from the local run")
	}
	var buf bytes.Buffer
	if err := s.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localMetrics, buf.Bytes()) {
		t.Errorf("aggregated metrics differ from the local run (%d vs %d bytes)",
			len(localMetrics), buf.Len())
	}
}

// TestDispatchFailoverByteIdentical is the failover acceptance test: a
// 2-node remote sweep with one node killed mid-run completes via the
// survivor, and manifest + deterministic aggregate metrics are
// byte-identical to the local run.
func TestDispatchFailoverByteIdentical(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	localDir, sumLocal, localMetrics := runLocalReference(t, ctx)

	svc0 := New(Config{MaxSessions: 2})
	svc1 := New(Config{MaxSessions: 2})
	defer svc1.Close()
	defer svc0.Close()
	ts0 := httptest.NewServer(svc0.Handler())
	ts1 := httptest.NewServer(svc1.Handler())
	defer ts1.Close()

	dir := t.TempDir()
	s, err := sweep.New(failoverPlan(), sweep.Options{Workers: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher([]string{ts0.URL, ts1.URL}, DispatchConfig{
		MaxAttempts:      8,
		Backoff:          20 * time.Millisecond,
		MaxBackoff:       200 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  200 * time.Millisecond,
		Rand:             func() float64 { return 0.5 },
		Logf:             t.Logf,
	})

	runErr := make(chan error, 1)
	go func() {
		_, err := s.RunWith(ctx, d.Executor())
		runErr <- err
	}()

	// Kill node 0 the moment it has live work: in-flight long-polls are cut
	// and every later request to it is refused.
	killed := false
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); {
		c := svc0.Counts()
		if c[StateQueued]+c[StateRunning] > 0 {
			ts0.CloseClientConnections()
			ts0.Close()
			killed = true
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	if !killed {
		t.Fatal("node 0 never received a session to be killed under")
	}
	if err := <-runErr; err != nil {
		t.Fatalf("dispatch with a killed node did not complete: %v", err)
	}
	if d.Stats()[0].Failures == 0 {
		t.Error("no failure charged to the killed node despite the mid-run kill")
	}

	sum := s.Summary()
	if sum.OK != sum.Total || sum.Missing != 0 {
		t.Fatalf("failover sweep not clean: %+v", sum)
	}
	assertSweepMatchesLocal(t, s, dir, localDir, localMetrics)

	// Race counts agree cell by cell with the local reference.
	localRaces := map[string]int{}
	for _, r := range sumLocal.Cells {
		localRaces[r.ID] = r.Races
	}
	for _, r := range sum.Cells {
		if r.Races != localRaces[r.ID] {
			t.Errorf("cell %s: failover run %d races, local %d", r.ID, r.Races, localRaces[r.ID])
		}
	}
}

// TestDispatchServiceRestartSameRaceSet is the service-level chaos test:
// a single-node remote sweep whose racedsvc is killed mid-sweep and
// restarted on the same durable data dir completes with the same race
// set (and byte-identical manifest) as a local run, with the pre-kill
// report history replayed intact.
func TestDispatchServiceRestartSameRaceSet(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	localDir, sumLocal, localMetrics := runLocalReference(t, ctx)

	dataDir := t.TempDir()
	svc0, _, err := Open(Config{MaxSessions: 2, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	srv0 := &http.Server{Handler: svc0.Handler()}
	go srv0.Serve(l)

	dir := t.TempDir()
	s, err := sweep.New(failoverPlan(), sweep.Options{Workers: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher([]string{addr}, DispatchConfig{
		MaxAttempts:      20,
		Backoff:          20 * time.Millisecond,
		MaxBackoff:       200 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
		Rand:             func() float64 { return 0.5 },
		Logf:             t.Logf,
	})
	runErr := make(chan error, 1)
	go func() {
		_, err := s.RunWith(ctx, d.Executor())
		runErr <- err
	}()

	// Kill the node mid-sweep: cut the HTTP plane, then stop the service
	// (draining its in-flight sessions into the durable log).
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); {
		c := svc0.Counts()
		if c[StateQueued]+c[StateRunning] > 0 {
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	srv0.Close()
	svc0.Close()

	// Restart on the same address and data dir; the dispatcher's breaker
	// half-opens, health-probes, and resumes.
	svc1, info, err := Open(Config{MaxSessions: 2, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc1.Close()
	if info.Records == 0 {
		t.Error("restarted service replayed nothing; pre-kill history lost")
	}
	if info.Truncation != "" {
		t.Errorf("clean shutdown left a truncated log: %s", info.Truncation)
	}
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := &http.Server{Handler: svc1.Handler()}
	defer srv1.Close()
	go srv1.Serve(l2)

	if err := <-runErr; err != nil {
		t.Fatalf("sweep did not survive the service restart: %v", err)
	}
	sum := s.Summary()
	if sum.OK != sum.Total || sum.Missing != 0 {
		t.Fatalf("restart sweep not clean: %+v", sum)
	}
	assertSweepMatchesLocal(t, s, dir, localDir, localMetrics)
	localRaces := map[string]int{}
	for _, r := range sumLocal.Cells {
		localRaces[r.ID] = r.Races
	}
	for _, r := range sum.Cells {
		if r.Races != localRaces[r.ID] {
			t.Errorf("cell %s: restarted run %d races, local %d (race set must survive the kill)",
				r.ID, r.Races, localRaces[r.ID])
		}
	}
}

// TestDispatchHonorsRetryAfter: a busy node's 503 with Retry-After
// overrides the dispatcher's own 20ms backoff, the jitter source is
// consulted so rejected fleets don't retry in lockstep, and the rejection
// is counted as one, not charged to the node as a failure.
func TestDispatchHonorsRetryAfter(t *testing.T) {
	cell := sweep.Cell{ID: "FFT-test", Request: sweep.Request{App: "FFT", Scale: 0.25, Procs: 2}}
	ts, submits := busyNode(t, cell, "team-a", 1, true)
	jitterCalls := 0
	d := NewDispatcher([]string{ts.URL}, DispatchConfig{
		Backoff: 20 * time.Millisecond,
		Rand:    func() float64 { jitterCalls++; return 0 },
		Logf:    t.Logf,
	}).Tenant("team-a")
	start := time.Now()
	res, err := d.RunCell(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != cell.ID {
		t.Fatalf("result %+v", res)
	}
	if got := submits.Load(); got != 2 {
		t.Fatalf("submits = %d, want 2 (one rejection, one success)", got)
	}
	if jitterCalls == 0 {
		t.Error("backoff never consulted the jitter source")
	}
	// The server said 1s; the dispatcher's own schedule would have waited 20ms.
	if el := time.Since(start); el < 900*time.Millisecond {
		t.Errorf("retried after %v; Retry-After: 1 was ignored", el)
	}
	ns := d.Stats()[0]
	if ns.Rejections != 1 || ns.Failures != 0 || ns.BreakerTrips != 0 || ns.Dispatched != 1 {
		t.Errorf("node stats %+v, want 1 rejection, 0 failures, 1 cell", ns)
	}
}

// TestDispatchBusyNodeDoesNotPinCell: a cell rejected by a busy node is
// retried on another node. Rejections are the dispatcher's to retry, so
// the busy node's inflight slot is freed and the next pick avoids it; the
// node is not charged a failure, because it is healthy.
func TestDispatchBusyNodeDoesNotPinCell(t *testing.T) {
	cell := sweep.Cell{ID: "FFT-test", Request: sweep.Request{App: "FFT", Scale: 0.25, Procs: 2}}
	busy, _ := busyNode(t, cell, DefaultTenant, 1<<30, false)
	svc := New(Config{MaxSessions: 1})
	defer svc.Close()
	live := httptest.NewServer(svc.Handler())
	defer live.Close()

	d := NewDispatcher([]string{busy.URL, live.URL}, DispatchConfig{
		Backoff: 20 * time.Millisecond,
		Rand:    func() float64 { return 0.5 },
		Logf:    t.Logf,
	}).Tenant(DefaultTenant)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := d.RunCell(ctx, cell)
	if err != nil {
		t.Fatalf("cell pinned to the busy node: %v", err)
	}
	if res.Status != sweep.StatusOK {
		t.Fatalf("result %+v", res)
	}
	st := d.Stats()
	if st[0].Rejections == 0 || st[0].Failures != 0 || st[0].BreakerTrips != 0 {
		t.Errorf("busy node %+v, want rejections and no failures", st[0])
	}
	if st[1].Dispatched != 1 {
		t.Errorf("live node %+v, want the cell", st[1])
	}
}

// TestDispatchCanceledSweepReportsCancellation: a remote sweep interrupted
// mid-cell ends the way a local one does. RunWith returns the context's
// error itself, not a cell's failure to run, and the interrupted cells
// stay pending for a resume.
func TestDispatchCanceledSweepReportsCancellation(t *testing.T) {
	svc := New(Config{MaxSessions: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	s, err := sweep.New(failoverPlan(), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher([]string{ts.URL}, DispatchConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() {
		_, err := s.RunWith(ctx, d.Executor())
		runErr <- err
	}()
	for deadline := time.Now().Add(time.Minute); svc.Counts()[StateRunning] == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the service never started a session")
		}
		time.Sleep(500 * time.Microsecond)
	}
	cancel()
	// RunWith's contract is to return ctx.Err() bare, so == is the check.
	if err := <-runErr; err != context.Canceled {
		t.Errorf("RunWith returned %v, want context.Canceled itself", err)
	}
	if sum := s.Summary(); sum.Missing == 0 {
		t.Errorf("no cell left pending after the interruption: %+v", sum)
	}
}

// TestDispatchRequestErrorNotRetried: an admission-time invalid request
// fails immediately without burning failover attempts or tripping
// breakers — the node is healthy, the request is not.
func TestDispatchRequestErrorNotRetried(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	d := NewDispatcher([]string{ts.URL}, DispatchConfig{})
	_, err := d.RunCell(context.Background(), sweep.Cell{ID: "bogus", Request: sweep.Request{App: "NoSuchApp", Procs: 2}})
	var reqErr *RequestError
	if !errors.As(err, &reqErr) {
		t.Fatalf("invalid cell returned %T (%v), want *RequestError", err, err)
	}
	for _, ns := range d.Stats() {
		if ns.Failures != 0 || ns.BreakerTrips != 0 {
			t.Errorf("request error charged to the node: %+v", ns)
		}
	}
}

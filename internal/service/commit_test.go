package service

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"lrcrace/internal/castore"
)

// fsyncGate holds the report log's fsyncs: once armed (when is nil or
// returns true), the next fsync signals entered and blocks until release.
// Later fsyncs pass straight through once released.
type fsyncGate struct {
	entered  chan struct{}
	released chan struct{}
	once     sync.Once
}

func holdFsync(s *Store, when func() bool) *fsyncGate {
	g := &fsyncGate{entered: make(chan struct{}), released: make(chan struct{})}
	var enter sync.Once
	s.log.SetSyncFunc(func(f *os.File) error {
		if when == nil || when() {
			enter.Do(func() { close(g.entered) })
			<-g.released
		}
		return f.Sync()
	})
	return g
}

// wait blocks until an fsync is held.
func (g *fsyncGate) wait(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(2 * time.Minute):
		t.Fatal("no fsync reached the gate")
	}
}

func (g *fsyncGate) release() { g.once.Do(func() { close(g.released) }) }

// within fails the test unless f returns before the deadline.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

func openGroupStore(t *testing.T) *Store {
	t.Helper()
	s, _, err := OpenStore(t.TempDir(), 0, castore.SegLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestAppendDoesNotWaitForFsync: while the committer is stuck in an
// fsync, appends from other goroutines still return.
func TestAppendDoesNotWaitForFsync(t *testing.T) {
	s := openGroupStore(t)
	g := holdFsync(s, nil)
	defer g.release()
	s.Append(Record{Session: "a", Kind: KindRace})
	g.wait(t)
	within(t, 10*time.Second, "Append during a held fsync", func() {
		for i := 0; i < 10; i++ {
			s.Append(Record{Session: "b", Kind: KindRace})
		}
	})
	if s.Appended() != 11 {
		t.Fatalf("appended %d, want 11", s.Appended())
	}
}

// TestVisibleImpliesDurable: with the fsync held, no reader — Since, a
// Subscriber, GET /reports?wait= — sees a record past the durable
// watermark; released, every record arrives, each exactly once.
func TestVisibleImpliesDurable(t *testing.T) {
	svc, ts, _ := newTestServer(t, Config{MaxSessions: 1, DataDir: t.TempDir()})
	s := svc.Store()
	sub := s.Subscribe("", 0)
	defer sub.Close()
	g := holdFsync(s, nil)
	defer g.release()
	for i := 0; i < 3; i++ {
		s.Append(Record{Session: "a", Kind: KindRace, Addr: uint64(i)})
	}
	g.wait(t)

	if recs, lost, next := s.Since(0, "", 0); len(recs) != 0 || lost != 0 || next != 0 {
		t.Fatalf("Since(0) during the held fsync = %d records, lost %d, next %d", len(recs), lost, next)
	}
	if recs, _ := sub.Next(expired()); len(recs) != 0 {
		t.Fatalf("subscriber saw %d records before they were durable", len(recs))
	}
	resp, err := http.Get(ts.URL + "/reports?since=0&wait=100ms")
	if err != nil {
		t.Fatal(err)
	}
	var batch ReportBatch
	err = json.NewDecoder(resp.Body).Decode(&batch)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Records) != 0 {
		t.Fatalf("GET /reports returned %d records before they were durable", len(batch.Records))
	}

	g.release()
	var got []Record
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for len(got) < 3 {
		recs, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("after release, subscriber got %d of 3 records: %v", len(got), err)
		}
		got = append(got, recs...)
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d (want each of 1..3 exactly once): %+v", i, r.Seq, got)
		}
	}
	if recs, _ := sub.Next(expired()); len(recs) != 0 {
		t.Fatalf("records delivered twice: %+v", recs)
	}
	if recs, _, next := s.Since(0, "", 0); len(recs) != 3 || next != 3 {
		t.Fatalf("Since(0) after release = %d records, next %d; want 3, 3", len(recs), next)
	}
}

// TestSessionDoneImpliesDurable: a session whose "finished" record is
// still in a held fsync is not done, neither in process nor over HTTP.
func TestSessionDoneImpliesDurable(t *testing.T) {
	svc, ts, _ := newTestServer(t, Config{MaxSessions: 1, DataDir: t.TempDir()})
	s := svc.Store()
	finished := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, r := range s.recs {
			if r.Kind == KindSession && strings.HasPrefix(r.Detail, "finished") {
				return true
			}
		}
		return false
	}
	g := holdFsync(s, finished)
	defer g.release()
	sess, err := svc.Submit(RunRequest{App: "FFT", Scale: 0.25, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	g.wait(t)

	select {
	case <-sess.Done():
		t.Fatal("Session.Done closed before the finished record was durable")
	default:
	}
	if st := sess.State(); st == StateDone {
		t.Fatal("session state is done before the finished record was durable")
	}
	resp, err := http.Get(ts.URL + "/sessions/" + sess.ID() + "?wait=100ms")
	if err != nil {
		t.Fatal(err)
	}
	var info SessionInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.State == StateDone || info.Result != nil {
		t.Fatalf("GET /sessions/{id}?wait= reported %s (result %v) before the finished record was durable", info.State, info.Result != nil)
	}

	g.release()
	select {
	case <-sess.Done():
	case <-time.After(time.Minute):
		t.Fatal("session never finished after the fsync was released")
	}
	recs, _, _ := s.Since(0, sess.ID(), 0)
	if last := recs[len(recs)-1]; !strings.HasPrefix(last.Detail, "finished") {
		t.Fatalf("done session's last visible record is %+v, want its finished record", last)
	}
}

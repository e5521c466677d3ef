package service

import (
	"testing"
	"time"

	"lrcrace/internal/dsm"
	"lrcrace/internal/harness"
	"lrcrace/internal/sweep"
)

// TestGoFrontSession is the service half of the gofront acceptance
// criterion: a go-frontend session is admitted, runs to StatusOK with
// gofront metrics in its result, and streams its race reports into the
// durable store as KindRace records — one per report, attributed to the
// session.
func TestGoFrontSession(t *testing.T) {
	req := RunRequest{App: "KV", Frontend: "go", Procs: 3, Racy: true, HotSkew: 0.7, Seed: 3}
	want := raceKeys(runStandalone(t, req).Races)
	if len(want) == 0 {
		t.Fatal("racy KV reference run found no races; streaming check would be vacuous")
	}

	svc := New(Config{MaxSessions: 2, QueueDepth: 4, SessionTimeout: time.Minute})
	defer svc.Close()

	sess, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sess.Done():
	case <-time.After(time.Minute):
		t.Fatalf("session %s never finished", sess.ID())
	}

	res := sess.Result()
	if res == nil || res.Status != sweep.StatusOK {
		t.Fatalf("session result %+v, want StatusOK", res)
	}
	if res.Metrics == nil || res.Metrics.CounterTotal("gofront_intervals_total") == 0 {
		t.Fatalf("session result missing gofront metrics: %s", metricsJSON(t, res))
	}
	if got := raceKeys(sess.Races()); len(got) != len(want) {
		t.Fatalf("session races %v, standalone %v", got, want)
	}

	recs, _, _ := svc.Store().Since(0, sess.ID(), 0)
	var raceRecs int
	for _, r := range recs {
		if r.Kind == KindRace {
			raceRecs++
		}
	}
	if raceRecs != len(sess.Races()) {
		t.Fatalf("%d KindRace records in store, session result has %d reports", raceRecs, len(sess.Races()))
	}

	// A clean session of the same workload comes back raceless.
	clean, err := svc.Submit(RunRequest{App: "Sessions", Frontend: "go", Procs: 3, HotSkew: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-clean.Done():
	case <-time.After(time.Minute):
		t.Fatalf("session %s never finished", clean.ID())
	}
	if res := clean.Result(); res == nil || res.Status != sweep.StatusOK || res.Races != 0 {
		t.Fatalf("clean Sessions session: %+v", res)
	}
}

// TestGoFrontAdmission: malformed go-frontend requests are refused with a
// typed *RequestError before any pool slot is spent.
func TestGoFrontAdmission(t *testing.T) {
	svc := New(Config{MaxSessions: 1})
	defer svc.Close()
	checkAdmission(t, svc, []admissionCase{
		{"unknown frontend", RunRequest{App: "KV", Frontend: "rust"},
			&harness.RunConfig{App: "KV", Procs: 4, Frontend: "rust"}},
		{"go frontend on dsm app", RunRequest{App: "FFT", Frontend: "go"},
			&harness.RunConfig{App: "FFT", Procs: 4, Frontend: "go"}},
		{"gofront workload without frontend", RunRequest{App: "KV"},
			&harness.RunConfig{App: "KV", Procs: 4}},
		{"go with protocol", RunRequest{App: "KV", Frontend: "go", Protocol: "mw"},
			&harness.RunConfig{App: "KV", Procs: 4, Frontend: "go", Protocol: dsm.MultiWriter}},
		{"go with sharded check", RunRequest{App: "KV", Frontend: "go", Sharded: true},
			&harness.RunConfig{App: "KV", Procs: 4, Frontend: "go", ShardedCheck: true}},
		{"go with barrier tree", RunRequest{App: "KV", Frontend: "go", BarrierTree: 2},
			&harness.RunConfig{App: "KV", Procs: 4, Frontend: "go", BarrierTree: 2}},
		{"go without checkpoint layer", RunRequest{App: "KV", Frontend: "go", Checkpoint: boolPtr(false)},
			&harness.RunConfig{App: "KV", Procs: 4, Frontend: "go", NoCheckpoint: true}},
		{"go with crash mode", RunRequest{App: "KV", Frontend: "go", CrashMode: "single"},
			&harness.RunConfig{App: "KV", Procs: 4, Frontend: "go", CrashMode: "single"}},
		{"hot skew on dsm app", RunRequest{App: "FFT", HotSkew: 0.5},
			&harness.RunConfig{App: "FFT", Procs: 4, HotKeySkew: 0.5}},
		{"racy on dsm app", RunRequest{App: "FFT", Racy: true},
			&harness.RunConfig{App: "FFT", Procs: 4, Racy: true}},
		{"hot skew out of range", RunRequest{App: "KV", Frontend: "go", HotSkew: 1.5},
			&harness.RunConfig{App: "KV", Procs: 4, Frontend: "go", HotKeySkew: 1.5}},
	})
}

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"lrcrace/internal/dsm"
	"lrcrace/internal/gofront"
	"lrcrace/internal/harness"
	"lrcrace/internal/race"
	"lrcrace/internal/simnet"
	"lrcrace/internal/sweep"
)

// raceKeys reduces race reports to a sorted, schedule-independent set:
// one key per distinct (address, write-write) pair.
func raceKeys(reports []race.Report) []string {
	var out []string
	for _, r := range race.DedupByAddr(reports) {
		out = append(out, fmt.Sprintf("0x%x/ww=%v", uint64(r.Addr), r.WriteWrite()))
	}
	sort.Strings(out)
	return out
}

// runStandalone executes a request's configuration directly through the
// harness — the reference a service session must match.
func runStandalone(t *testing.T, req RunRequest) *harness.Result {
	t.Helper()
	_, cfg, err := req.Defaulted().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func metricsJSON(t *testing.T, r *sweep.CellResult) string {
	t.Helper()
	if r == nil || r.Metrics == nil {
		t.Fatal("result has no metrics snapshot")
	}
	b, err := json.Marshal(r.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestConcurrentSessionsIsolated is the multi-tenancy acceptance test: 32
// sessions across four distinct configurations, all admitted at once into
// a pool wide enough to run them concurrently, must each produce exactly
// the race set a standalone run of its configuration produces, and the
// deterministic configurations must produce byte-identical canonical
// metrics — i.e. no telemetry or detector state leaks between tenants.
func TestConcurrentSessionsIsolated(t *testing.T) {
	reqs := []RunRequest{
		{App: "FFT", Scale: 0.25, Procs: 2},
		{App: "SOR", Scale: 0.25, Procs: 2},
		{App: "ChaosMW", Procs: 4},
		{App: "ChaosTSP", Procs: 4},
	}
	const copies = 8 // 4 configs × 8 = 32 sessions

	// References first, single-tenant. Every configuration runs one
	// interleaving per input, so each session must match its reference's
	// distinct race set (addresses × write-write) and dynamic report count.
	wantRaces := make([][]string, len(reqs))
	wantReports := make([]int, len(reqs))
	for i, req := range reqs {
		res := runStandalone(t, req)
		wantRaces[i], wantReports[i] = raceKeys(res.Races), len(res.Races)
	}
	// The chaos configurations must actually race, or the cross-talk check
	// below is vacuous.
	if len(wantRaces[2]) == 0 || len(wantRaces[3]) == 0 {
		t.Fatalf("chaos references found no races: ChaosMW=%v ChaosTSP=%v", wantRaces[2], wantRaces[3])
	}

	svc := New(Config{MaxSessions: 32, QueueDepth: 32, SessionTimeout: 2 * time.Minute})
	defer svc.Close()

	var sessions []*Session
	var which []int
	for c := 0; c < copies; c++ {
		for i, req := range reqs {
			sess, err := svc.Submit(req)
			if err != nil {
				t.Fatalf("submit %s copy %d: %v", req.App, c, err)
			}
			sessions = append(sessions, sess)
			which = append(which, i)
		}
	}

	for _, sess := range sessions {
		select {
		case <-sess.Done():
		case <-time.After(2 * time.Minute):
			t.Fatalf("session %s never finished", sess.ID())
		}
	}

	fftMetrics := map[string]bool{}
	for k, sess := range sessions {
		i := which[k]
		res := sess.Result()
		if res == nil || res.Status != sweep.StatusOK {
			t.Fatalf("session %s (%s): result %+v", sess.ID(), reqs[i].App, res)
		}
		if got := raceKeys(sess.Races()); fmt.Sprint(got) != fmt.Sprint(wantRaces[i]) {
			t.Errorf("session %s (%s): races %v, standalone %v", sess.ID(), reqs[i].App, got, wantRaces[i])
		}
		if res.Races != wantReports[i] || len(sess.Races()) != wantReports[i] || res.DistinctRaces != len(wantRaces[i]) {
			t.Errorf("session %s (%s): result counts %d/%d, %d reports kept, want %d/%d", sess.ID(), reqs[i].App,
				res.Races, res.DistinctRaces, len(sess.Races()), wantReports[i], len(wantRaces[i]))
		}
		// FFT's virtual-time simulation is schedule-independent: every
		// tenant's canonical snapshot must be byte-identical. A single
		// shared counter bleeding across sessions shows up here.
		if reqs[i].App == "FFT" {
			fftMetrics[metricsJSON(t, res)] = true
		}
	}
	if len(fftMetrics) != 1 {
		t.Errorf("FFT sessions produced %d distinct canonical metrics documents, want 1", len(fftMetrics))
	}

	// Every session left its race reports in the store, attributed to the
	// right session: exactly one KindRace record per report in its result.
	for _, sess := range sessions {
		recs, _, _ := svc.Store().Since(0, sess.ID(), 0)
		var raceRecs int
		for _, r := range recs {
			if r.Session != sess.ID() {
				t.Fatalf("session filter returned foreign record %+v", r)
			}
			if r.Kind == KindRace {
				raceRecs++
			}
		}
		if raceRecs != len(sess.Races()) {
			t.Errorf("session %s: %d race records in store, result has %d reports", sess.ID(), raceRecs, len(sess.Races()))
		}
	}
}

// TestSubscriberReplayMatchesStore: a merged-view subscriber attached
// before any session starts sees every record exactly once, in sequence
// order, and its transcript equals the final store contents.
func TestSubscriberReplayMatchesStore(t *testing.T) {
	svc := New(Config{MaxSessions: 4, QueueDepth: 16})
	sub := svc.Store().Subscribe("", 0)
	defer sub.Close()

	// Tail live, concurrently with the sessions, until told the store is
	// final; then one last read picks up whatever the tail had not yet.
	ctx, stop := context.WithCancel(context.Background())
	transcript := make(chan []Record, 1)
	go func() {
		var got []Record
		for {
			recs, err := sub.Next(ctx)
			got = append(got, recs...)
			if err != nil {
				transcript <- got
				return
			}
		}
	}()

	var sessions []*Session
	for _, req := range []RunRequest{
		{App: "ChaosMW", Procs: 4},
		{App: "FFT", Scale: 0.25, Procs: 2},
		{App: "ChaosTSP", Procs: 4},
	} {
		sess, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	for _, sess := range sessions {
		<-sess.Done()
	}
	svc.Close()
	stop()
	got := <-transcript
	rest, _ := sub.Next(ctx)
	got = append(got, rest...)

	for _, r := range got {
		if r.Kind == KindTruncated {
			t.Fatalf("reader reported truncation under default retention: %+v", r)
		}
	}
	want, lost, _ := svc.Store().Since(0, "", 0)
	if lost != 0 {
		t.Fatalf("store dropped %d records under default retention", lost)
	}
	if len(got) != len(want) {
		t.Fatalf("subscriber saw %d records, store holds %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Session != want[i].Session || got[i].Kind != want[i].Kind {
			t.Fatalf("record %d: subscriber %+v, store %+v", i, got[i], want[i])
		}
		if i > 0 && got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("subscriber sequence gap: %d then %d", got[i-1].Seq, got[i].Seq)
		}
	}
}

// TestOverloadTyped: with a single-slot pool and a single-slot queue, a
// third concurrent submission is rejected with *OverloadError while the
// first two are unaffected.
func TestOverloadTyped(t *testing.T) {
	svc := New(Config{MaxSessions: 1, QueueDepth: 1, SessionTimeout: 5 * time.Second})
	defer svc.Close()

	// Occupy the one worker. TSP at scale 0.25 runs for several seconds —
	// long enough to deterministically fill the queue behind it. Its
	// session deadline reaps it, so Close stays fast.
	slow, err := svc.Submit(RunRequest{App: "TSP", Scale: 0.25, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for slow.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("slow session never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	queued, err := svc.Submit(RunRequest{App: "FFT", Scale: 0.25, Procs: 2})
	if err != nil {
		t.Fatalf("queue-filling submission rejected: %v", err)
	}
	if queued.State() != StateQueued {
		t.Fatalf("second session state %s, want queued", queued.State())
	}

	_, err = svc.Submit(RunRequest{App: "FFT", Scale: 0.25, Procs: 2})
	var ovl *OverloadError
	if !errors.As(err, &ovl) {
		t.Fatalf("overflow submission returned %v, want *OverloadError", err)
	}
	if ovl.Limit != 1 {
		t.Errorf("OverloadError.Limit = %d, want 1", ovl.Limit)
	}
}

// admissionCase is one request that can never run. cfg is the run
// configuration it describes: the 400 reason must be word for word what
// harness.ValidateRunConfig says about that configuration — the service has
// no admission rules of its own. A nil cfg marks a request refused before
// a configuration exists (an unparseable protocol name).
type admissionCase struct {
	name string
	req  RunRequest
	cfg  *harness.RunConfig
}

func checkAdmission(t *testing.T, svc *Service, cases []admissionCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := svc.Submit(tc.req)
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("Submit(%+v) = %v, want *RequestError", tc.req, err)
			}
			if tc.cfg == nil {
				return
			}
			want := harness.ValidateRunConfig(*tc.cfg)
			if want == nil {
				t.Fatalf("validator accepts %+v; the case proves nothing", *tc.cfg)
			}
			if reqErr.Reason != want.Error() {
				t.Errorf("400 reason %q, validator says %q", reqErr.Reason, want)
			}
		})
	}
	if got := len(svc.Sessions()); got != 0 {
		t.Fatalf("%d sessions admitted by invalid requests", got)
	}
}

// TestAdmissionValidation: requests that can never run are rejected with
// *RequestError at submission time — no session is admitted, nothing runs.
func TestAdmissionValidation(t *testing.T) {
	svc := New(Config{MaxSessions: 1})
	defer svc.Close()
	checkAdmission(t, svc, []admissionCase{
		{"empty", RunRequest{}, &harness.RunConfig{Procs: 4}},
		{"unknown app", RunRequest{App: "NoSuchApp"}, &harness.RunConfig{App: "NoSuchApp", Procs: 4}},
		{"sharded without detect", RunRequest{App: "FFT", Sharded: true, Detect: boolPtr(false)},
			&harness.RunConfig{App: "FFT", Procs: 4, DSM: dsm.Config{ShardedCheck: true}}},
		{"arity-1 barrier tree", RunRequest{App: "FFT", BarrierTree: 1},
			&harness.RunConfig{App: "FFT", Procs: 4, Detect: true, DSM: dsm.Config{BarrierTree: 1}}},
		{"crash on whole-program app", RunRequest{App: "FFT", CrashMode: "single"},
			&harness.RunConfig{App: "FFT", Procs: 4, CrashMode: "single"}},
		{"crash without checkpointing", RunRequest{App: "ChaosTSP", Procs: 4, CrashMode: "single", Checkpoint: boolPtr(false)},
			&harness.RunConfig{App: "ChaosTSP", Procs: 4, CrashMode: "single", DSM: dsm.Config{NoCheckpoint: true}}},
		{"crash with one proc", RunRequest{App: "ChaosTSP", Procs: 1, CrashMode: "single"},
			&harness.RunConfig{App: "ChaosTSP", Procs: 1, CrashMode: "single"}},
		{"double crash with two procs", RunRequest{App: "ChaosMW", Procs: 2, CrashMode: "double"},
			&harness.RunConfig{App: "ChaosMW", Procs: 2, CrashMode: "double"}},
		{"corruption without crash", RunRequest{App: "ChaosTSP", Procs: 4, CorruptMode: "chunk"},
			&harness.RunConfig{App: "ChaosTSP", Procs: 4, CorruptMode: "chunk"}},
		{"unknown crash mode", RunRequest{App: "ChaosTSP", CrashMode: "thrice"},
			&harness.RunConfig{App: "ChaosTSP", Procs: 4, CrashMode: "thrice"}},
		{"negative scale", RunRequest{App: "FFT", Scale: -1}, &harness.RunConfig{App: "FFT", Procs: 4, Scale: -1}},
		{"negative procs", RunRequest{App: "FFT", Procs: -1}, &harness.RunConfig{App: "FFT", Procs: -1}},
		{"fault probability above one", RunRequest{App: "TSP", Faults: &sweep.FaultAxis{Drop: 1.5}},
			&harness.RunConfig{App: "TSP", Procs: 4, DSM: dsm.Config{Faults: &simnet.FaultPlan{Drop: 1.5}}}},
		{"bogus protocol", RunRequest{App: "FFT", Protocol: "bogus"}, nil},
	})
}

// TestClosedService: Submit after Close returns ErrClosed.
func TestClosedService(t *testing.T) {
	svc := New(Config{MaxSessions: 1})
	svc.Close()
	if _, err := svc.Submit(RunRequest{App: "FFT", Scale: 0.25, Procs: 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

func boolPtr(b bool) *bool { return &b }

// gateOpen releases one run of the Gate workload per receive.
var gateOpen = make(chan struct{})

// Gate is a go-frontend workload that holds its session running until the
// test lets it finish, so a test can make sessions finish in an order of
// its choosing.
func init() {
	gofront.RegisterWorkload("Gate", "test only: runs once gateOpen lets it", func(cfg gofront.WorkloadConfig) (*gofront.Result, error) {
		<-gateOpen
		return gofront.New(gofront.Config{Seed: cfg.Seed}).Run(func(*gofront.G) {}), nil
	})
}

// TestEvictionFollowsAdmissionOrder: with two workers, sessions finish in
// another order than they were admitted, and admission evicts the oldest
// finished sessions by admission, not by finish, keeping KeepDone of them.
func TestEvictionFollowsAdmissionOrder(t *testing.T) {
	svc := New(Config{MaxSessions: 2, KeepDone: 1, SessionTimeout: time.Minute})
	defer svc.Close()
	retained := func(want ...*Session) {
		t.Helper()
		var got, ids []string
		for _, s := range svc.Sessions() {
			got = append(got, s.ID())
		}
		for _, s := range want {
			ids = append(ids, s.ID())
		}
		if fmt.Sprint(got) != fmt.Sprint(ids) {
			t.Fatalf("retained %v, want %v", got, ids)
		}
	}
	fft := RunRequest{App: "FFT", Scale: 0.25, Procs: 2}
	gate, err := svc.Submit(RunRequest{App: "Gate", Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { // before Close, which waits for the gate session
		select {
		case <-gate.Done():
		default:
			gateOpen <- struct{}{}
		}
	}()
	b := runOne(t, svc, fft)
	c := runOne(t, svc, fft) // finds one finished session: nothing to evict
	retained(gate, b, c)
	d := runOne(t, svc, fft) // finds b and c finished: b goes
	retained(gate, c, d)

	gateOpen <- struct{}{}
	<-gate.Done()
	// gate, admitted first, finished last: this admission finds gate, c
	// and d finished and evicts the two admitted first.
	e := runOne(t, svc, fft)
	retained(d, e)
	if gate.State() != StateDone || gate.Result() == nil {
		t.Fatalf("gate session: state %s, result %v", gate.State(), gate.Result())
	}
}

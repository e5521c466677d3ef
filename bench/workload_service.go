package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lrcrace/internal/service"
)

// Session types of the burst. The Water detection-on type produces the
// reports and carries op_ns; its detection-off twin carries op_ns_base.
const (
	sessWaterOn = iota
	sessKV
	sessSOR
	sessWaterOff
	sessTypes
)

// serviceClients is the closed-loop client count: the real callers
// (sweeprun -remote) each wait for a reply, and load threads never exceed
// the box's two cores.
const serviceClients = 2

func sessionRequest(e *env, typ int) service.RunRequest {
	yes, no := true, false
	switch typ {
	case sessWaterOn:
		return service.RunRequest{App: "Water", Scale: scaleFor(e, 0.5, 0.3), Procs: 4, Detect: &yes}
	case sessWaterOff:
		return service.RunRequest{App: "Water", Scale: scaleFor(e, 0.5, 0.3), Procs: 4, Detect: &no}
	case sessKV:
		return service.RunRequest{App: "KV", Frontend: "go", Racy: true, HotSkew: 0.5, Procs: 4, Seed: e.seed, Detect: &yes}
	default:
		return service.RunRequest{App: "SOR", Scale: scaleFor(e, 0.25, 0.1), Procs: 2, Detect: &yes}
	}
}

// sseTail follows /reports/stream from sequence 0 and checks that every
// record arrives exactly once.
type sseTail struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu                  sync.Mutex
	last                uint64
	records, dups, gaps uint64
	err                 error
}

func startSSE(hc *http.Client, base string) (*sseTail, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/reports/stream?since=0", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	s := &sseTail{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			id, ok := strings.CutPrefix(sc.Text(), "id: ")
			if !ok {
				continue
			}
			seq, err := strconv.ParseUint(id, 10, 64)
			s.mu.Lock()
			switch {
			case err != nil:
				s.err = err
			case seq <= s.last:
				s.dups++
			default:
				s.gaps += seq - s.last - 1
				s.last = seq
				s.records++
			}
			s.mu.Unlock()
		}
		if err := sc.Err(); err != nil && ctx.Err() == nil {
			s.mu.Lock()
			s.err = err
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// waitFor blocks until the tail has seen sequence seq, or the timeout.
func (s *sseTail) waitFor(seq uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		last := s.last
		s.mu.Unlock()
		if last >= seq {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *sseTail) stop() {
	s.cancel()
	<-s.done
}

type serviceInst struct {
	dir   string
	svc   *service.Service
	srv   *httptest.Server
	hc    *http.Client
	sse   *sseTail
	order []int // seeded session-type order, cycled
}

func (w *serviceInst) close() {
	if w.sse != nil {
		w.sse.stop()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
	if w.svc != nil {
		w.svc.Close()
	}
	os.RemoveAll(w.dir)
}

// sessionTiming is one finished session as the client saw it.
type sessionTiming struct {
	typ                   int
	traced                bool
	submit, wait, latency time.Duration
	info                  service.SessionInfo
	err                   error
}

// session submits one request and waits for its terminal state.
func (w *serviceInst) session(e *env, c *service.Client, typ, idx, tid int, traced bool) sessionTiming {
	tr := e.spans(traced)
	st := sessionTiming{typ: typ, traced: traced}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	root := tr.begin("session", -1, idx, tid)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("Client.Submit", root, idx, tid)
	info, err := c.Submit(ctx, sessionRequest(e, st.typ))
	tr.end(sp)
	st.submit = time.Since(t0)
	if err != nil {
		st.err = err
		return st
	}
	sp = tr.begin("Client.Wait", root, idx, tid)
	st.info, st.err = c.Wait(ctx, info.ID)
	tr.end(sp)
	st.latency = time.Since(t0)
	st.wait = st.latency - st.submit
	return st
}

// snapshotCounts maps the DSM layer counts onto the series a session's
// CellResult exports.
var snapshotCounts = map[string][]string{
	"dsm.page_faults":       {"dsm_read_faults_total", "dsm_write_faults_total"},
	"dsm.intervals":         {"dsm_intervals_total"},
	"dsm.barriers":          {"dsm_barriers_total"},
	"dsm.lock_acquires":     {"dsm_lock_acquires_total"},
	"dsm.read_notice_bytes": {"dsm_read_notice_bytes_total"},
	"dsm.diff_words":        {"dsm_diff_words_total"},
	"simnet.msgs":           {"net_messages_total"},
	"simnet.bytes":          {"net_bytes_total"},
	"race.comparisons":      {"race_pair_comparisons_total"},
	"race.check_entries":    {"race_check_entries_built_total"},
	"race.bitmaps_compared": {"race_bitmaps_compared_total"},
	"race.reports":          {"races_found_total"},
}

// roundSessions is how many sessions one iteration runs: each client takes
// half of them, in the seeded type order. Rounds exist so that the reference
// kernel can be sampled between them with the service idle; a client that
// finishes its half early waits for the other, which costs a few percent of
// the closed loop's throughput.
const roundSessions = 2 * sessTypes

func (w *serviceInst) run(e *env, t *tally, more func() bool) {
	results := make([][]sessionTiming, serviceClients)
	clients := make([]*service.Client, serviceClients)
	for c := range clients {
		clients[c] = &service.Client{Base: w.srv.URL, HTTP: w.hc}
	}
	sessions := roundSessions
	if e.tiny {
		sessions = sessTypes
	}
	iterate(e, t, more, func(round int, traced bool) {
		e.cal.sample()
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1) - 1)
					if k >= sessions {
						return
					}
					idx := round*sessions + k
					results[c] = append(results[c], w.session(e, clients[c], w.order[idx%len(w.order)], idx, c, traced))
				}
			}()
		}
		wg.Wait()
	})
	t.iterations = 0 // counted in sessions below

	var all []float64
	var reports int64
	counts := map[string]int64{}
	for _, rs := range results {
		for _, st := range rs {
			t.attempted++
			t.iterations++
			if st.err != nil {
				t.fail("%s: session: %v", wService, st.err)
				continue
			}
			res := st.info.Result
			if st.info.State != service.StateDone || res == nil || res.Status != "ok" {
				t.fail("%s: session %s ended %s: %+v", wService, st.info.ID, st.info.State, res)
				continue
			}
			if (st.typ == sessWaterOn) != (res.Races > 0) && st.typ != sessKV {
				t.fail("%s: session %s (type %d) reported %d races", wService, st.info.ID, st.typ, res.Races)
			}
			t.ops++
			ns := float64(st.latency.Nanoseconds())
			all = append(all, ns/1e6)
			switch {
			case st.typ == sessWaterOn && st.traced:
				t.opNSTraced = append(t.opNSTraced, ns)
			case st.typ == sessWaterOn:
				t.opNS = append(t.opNS, ns)
			case st.typ == sessWaterOff:
				t.opNSBase = append(t.opNSBase, ns)
			}
			t.add("service.submit_ms_p50", st.submit.Seconds()*1e3)
			t.add("service.wait_ms_p50", st.wait.Seconds()*1e3)
			t.add("service.run_ms_p50", float64(res.WallNS)/1e6)
			t.add("service.overhead_ms_p50", (ns-float64(res.WallNS))/1e6)
			reports += int64(res.Races)
			if res.Metrics != nil {
				for name, series := range snapshotCounts {
					for _, s := range series {
						counts[name] += res.Metrics.CounterTotal(s)
					}
				}
			}
		}
	}
	if t.ops == 0 {
		return
	}
	t.add("service.session_p95_ms", percentile(all, 95))
	t.add("service.reports_per_session", float64(reports)/float64(t.ops))
	for name := range snapshotCounts {
		t.add(name, float64(counts[name])/float64(t.ops))
	}

	// Every record the store appended must reach the subscriber exactly once.
	appended := w.svc.Store().Appended()
	if !w.sse.waitFor(appended, 5*time.Second) {
		t.fail("%s: the SSE subscriber stopped short of record %d", wService, appended)
	}
	w.sse.mu.Lock()
	records, dups, gaps, sseErr := w.sse.records, w.sse.dups, w.sse.gaps, w.sse.err
	w.sse.mu.Unlock()
	if sseErr != nil {
		t.fail("%s: SSE stream: %v", wService, sseErr)
	}
	if dups+gaps > 0 {
		t.fail("%s: SSE delivered %d duplicates and skipped %d records", wService, dups, gaps)
		t.failed += int(dups+gaps) - 1
	}
	t.add("service.sse_records", float64(records))
	t.add("service.sse_dups", float64(dups))
	t.add("service.sse_gaps", float64(gaps))
}

var serviceWorkload = workload{
	name: wService,
	why:  "the plane above the DSM: admission, request-to-cell expansion, scoped recorder, fsynced store appends, JSON, HTTP and SSE under 2 closed-loop clients; DSM work per session is small",
	op:   "session",
	setup: func(e *env) (instance, error) {
		w := &serviceInst{}
		ok := false
		defer func() {
			if !ok {
				w.close()
			}
		}()
		var err error
		if w.dir, err = os.MkdirTemp(e.tmp, "svc-"); err != nil {
			return nil, err
		}
		if w.svc, _, err = service.Open(service.Config{MaxSessions: 2, DataDir: w.dir, StoreSyncEvery: 1}); err != nil {
			return nil, err
		}
		w.srv = httptest.NewServer(w.svc.Handler())
		w.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients + 1}}
		if w.sse, err = startSSE(w.hc, w.srv.URL); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(e.seed))
		for round := 0; round < 16; round++ {
			w.order = append(w.order, rng.Perm(sessTypes)...)
		}
		client := &service.Client{Base: w.srv.URL, HTTP: w.hc}
		for typ := 0; typ < sessTypes; typ++ { // warm-up: one session of each type
			st := w.session(e, client, typ, -1, 0, false)
			if st.err != nil || st.info.Result == nil || st.info.Result.Status != "ok" {
				return nil, fmt.Errorf("warm-up session of type %d: %v %+v", typ, st.err, st.info.Result)
			}
		}
		ok = true
		return w, nil
	},
}

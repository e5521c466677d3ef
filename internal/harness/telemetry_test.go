package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"lrcrace/internal/dsm"
	"lrcrace/internal/mem"
	"lrcrace/internal/reliable"
	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"
)

// TestTelemetryTSPExport is the tentpole acceptance check: a TSP run with a
// recorder attached exports valid Chrome trace-event JSON with one track per
// process, and a metrics snapshot that reconciles exactly with the run's
// dsm.Stats and simnet.Stats.
func TestTelemetryTSPExport(t *testing.T) {
	res, err := Run(RunConfig{
		App:       "TSP",
		Scale:     0.1,
		Procs:     4,
		Detect:    true,
		Telemetry: &telemetry.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Telemetry
	if rec == nil {
		t.Fatal("Result.Telemetry not set")
	}
	if rec.Procs() != 4 {
		t.Fatalf("recorder procs = %d, want the run's 4", rec.Procs())
	}

	var b bytes.Buffer
	if err := rec.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Tid  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	threads := map[int]string{}
	eventsByTid := map[int]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			threads[e.Tid] = e.Args["name"].(string)
		} else if e.Ph != "M" {
			eventsByTid[e.Tid]++
		}
	}
	if len(threads) != 5 || threads[4] != "system" {
		t.Fatalf("thread tracks = %v, want proc 0..3 + system", threads)
	}
	for tid := 0; tid < 4; tid++ {
		if threads[tid] != fmt.Sprintf("proc %d", tid) {
			t.Errorf("tid %d named %q", tid, threads[tid])
		}
		if eventsByTid[tid] == 0 {
			t.Errorf("no events on proc %d's track", tid)
		}
	}

	// Snapshot reconciliation with the raw stats structs.
	snap := res.MetricsSnapshot()
	var locks, barriers, readFaults int64
	for _, st := range res.Procs {
		locks += st.LockAcquires
		barriers += st.Barriers
		readFaults += st.ReadFaults
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{"dsm_lock_acquires_total", locks},
		{"dsm_barriers_total", barriers},
		{"dsm_read_faults_total", readFaults},
		{"net_bytes_total", res.Net.TotalBytes()},
		{"net_messages_total", res.Net.TotalMessages()},
		{"races_found_total", int64(len(res.Races))},
		{"race_epochs_total", int64(res.Det.Epochs)},
		// Event-derived counters agree with the stats the sites account:
		// every Lock() emits exactly one LockAcquired event.
		{`telemetry_events_total{kind="LockAcquired"}`, locks},
	} {
		if got := snap.CounterTotal(c.name); got != c.want {
			t.Errorf("snapshot %s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := snap.Gauges["run_virtual_ns"]; got != float64(res.VirtualNS) {
		t.Errorf("run_virtual_ns = %v, want %d", got, res.VirtualNS)
	}
	if len(res.Races) == 0 {
		t.Error("TSP run found no races (expected its racy tour bound)")
	}

	// The same registry must expose cleanly as Prometheus text.
	var prom bytes.Buffer
	if err := rec.Metrics().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "# TYPE dsm_lock_acquires_total counter") {
		t.Error("Prometheus exposition missing dsm_lock_acquires_total family")
	}
}

// barrierOnlyTrace runs a dsm-level workload in which every process writes
// only pages homed at it and synchronizes by barrier — every virtual
// timestamp is then independent of real scheduling — and returns the Chrome
// trace export.
func barrierOnlyTrace(t *testing.T) []byte {
	t.Helper()
	const procs = 4
	ps := mem.DefaultPageSize
	// Checkpointing off: the content-addressed chunk store dedups across
	// processes, so whether a chunk write is a put or a dedup hit — and when
	// retention GC fires — depends on which process serializes first, which
	// is real scheduling. Those events are honestly nondeterministic; this
	// test is about the exporter's virtual-time determinism.
	rec := telemetry.New(telemetry.Config{Procs: procs})
	sys, err := dsm.New(dsm.Config{NumProcs: procs, SharedSize: procs * ps, Detect: true, NoCheckpoint: true, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Run(func(p *dsm.Proc) {
		base := ps * p.ID()
		for round := 0; round < 3; round++ {
			for w := 0; w < 8; w++ {
				p.Write(mem.Addr(base+8*w), uint64(round))
			}
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := rec.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestChromeTraceSameSeedDeterministic asserts the exported timeline of a
// deterministic workload is byte-identical across runs: virtual timestamps
// come from the cost model and the exporter orders canonically, so real
// goroutine scheduling must not leak into the artifact.
func TestChromeTraceSameSeedDeterministic(t *testing.T) {
	t1 := barrierOnlyTrace(t)
	t2 := barrierOnlyTrace(t)
	if !bytes.Equal(t1, t2) {
		t.Fatal("chrome trace differs across identical runs")
	}
	// And it is a loadable, non-trivial document.
	var doc map[string]interface{}
	if err := json.Unmarshal(t1, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if !bytes.Contains(t1, []byte("BarrierArrive")) {
		t.Error("trace carries no barrier events")
	}
}

// TestFlightRecorderOnRetryCapChaos asserts the flight recorder's black-box
// behavior: a run over a catastrophically lossy wire exhausts the reliable
// sublayer's retry cap, the link is declared dead, and the armed recorder
// dumps a coherent tail of events — including the retransmissions that led
// up to the failure — to the configured sink.
func TestFlightRecorderOnRetryCapChaos(t *testing.T) {
	var sink bytes.Buffer
	rec := telemetry.New(telemetry.Config{
		Procs:      4,
		FlightN:    64,
		FlightSink: &sink,
	})

	_, err := Run(RunConfig{
		App:      "SOR",
		Scale:    0.05,
		Procs:    4,
		Recorder: rec,
		DSM: dsm.Config{
			Protocol: dsm.SingleWriter,
			Faults:   &simnet.FaultPlan{Seed: 7, Drop: 0.95},
			Reliable: true,
			ReliableConfig: reliable.Config{
				RTO:        200 * time.Microsecond,
				MaxRetries: 2,
			},
		},
	})
	if err == nil {
		t.Fatal("run survived a 95 percent drop wire with a 2-round retry cap")
	}
	if rec.Trips() == 0 {
		t.Fatal("flight recorder never tripped")
	}
	out := sink.String()
	if !strings.Contains(out, "--- flight recorder:") {
		t.Fatalf("sink has no dump header:\n%s", out)
	}
	if !strings.Contains(out, "Retransmit") {
		t.Errorf("dump shows no retransmissions before death:\n%s", out)
	}
	if !strings.Contains(out, "LinkDead") {
		t.Errorf("dump does not include the fatal LinkDead event:\n%s", out)
	}
	if !strings.Contains(out, "--- end flight dump ---") {
		t.Error("dump not terminated")
	}
}

package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

// chromeDoc mirrors the trace-event JSON envelope for decoding in tests.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string                 `json:"name"`
		Ph   string                 `json:"ph"`
		Ts   float64                `json:"ts"`
		Dur  float64                `json:"dur"`
		Pid  int                    `json:"pid"`
		Tid  int                    `json:"tid"`
		Args map[string]interface{} `json:"args"`
	} `json:"traceEvents"`
}

func synthEvents(sc Scope) {
	sc.Emit(0, KPageFault, 100_000, 3, 1, 0)
	sc.Emit(0, KPageFetch, 400_000, 3, 1, 300_000)
	sc.Emit(1, KLockRequest, 50_000, 2, 0, 0)
	sc.Emit(1, KLockAcquired, 250_000, 2, 0, 200_000)
	sc.Emit(0, KBarrierDepart, 900_000, 0, 0, 500_000)
	sc.Emit(-1, KRetransmit, 600_000, 1, 4, 2)
}

func exportTrace(t *testing.T) ([]byte, *chromeDoc) {
	t.Helper()
	r := New(Config{Procs: 2})
	synthEvents(To(r))
	var b bytes.Buffer
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, b.String())
	}
	return b.Bytes(), &doc
}

func TestChromeTraceStructure(t *testing.T) {
	_, doc := exportTrace(t)

	// Metadata: process name + one thread per proc + system.
	threads := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			threads[e.Tid] = e.Args["name"].(string)
		}
	}
	if len(threads) != 3 || threads[0] != "proc 0" || threads[1] != "proc 1" || threads[2] != "system" {
		t.Fatalf("thread metadata = %v", threads)
	}

	byName := map[string][]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			byName[e.Name] = append(byName[e.Name], e.Tid)
		}
	}
	// Instants land on the emitter's track.
	if tids := byName["PageFault"]; len(tids) != 1 || tids[0] != 0 {
		t.Fatalf("PageFault tids = %v", tids)
	}
	// System events (proc -1) land on the system track.
	if tids := byName["Retransmit"]; len(tids) != 1 || tids[0] != 2 {
		t.Fatalf("Retransmit tids = %v", tids)
	}

	// Wait-shaped events export as X spans with virtual durations in µs.
	var found int
	for _, e := range doc.TraceEvents {
		switch e.Name {
		case "page fetch":
			found++
			if e.Ph != "X" || e.Ts != 100 || e.Dur != 300 {
				t.Fatalf("page fetch span = %+v", e)
			}
		case "lock wait":
			found++
			if e.Ph != "X" || e.Ts != 50 || e.Dur != 200 || e.Tid != 1 {
				t.Fatalf("lock wait span = %+v", e)
			}
		case "barrier wait":
			found++
			if e.Ph != "X" || e.Ts != 400 || e.Dur != 500 {
				t.Fatalf("barrier wait span = %+v", e)
			}
		}
	}
	if found != 3 {
		t.Fatalf("found %d wait spans, want 3", found)
	}
}

// TestChromeTraceDeterministic records the same events in two different
// real-time interleavings; the exports must be byte-identical because the
// exporter sorts canonically by virtual time, not by arrival order.
func TestChromeTraceDeterministic(t *testing.T) {
	r1 := New(Config{Procs: 2})
	synthEvents(To(r1))

	r2 := New(Config{Procs: 2})
	// Same events, reversed emission order (different Seq/Wall values).
	sc := To(r2)
	sc.Emit(-1, KRetransmit, 600_000, 1, 4, 2)
	sc.Emit(0, KBarrierDepart, 900_000, 0, 0, 500_000)
	sc.Emit(1, KLockAcquired, 250_000, 2, 0, 200_000)
	sc.Emit(1, KLockRequest, 50_000, 2, 0, 0)
	sc.Emit(0, KPageFetch, 400_000, 3, 1, 300_000)
	sc.Emit(0, KPageFault, 100_000, 3, 1, 0)

	var b1, b2 bytes.Buffer
	if err := r1.WriteChromeTrace(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteChromeTrace(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("exports differ across emission orders:\n%s\n---\n%s", b1.String(), b2.String())
	}
}

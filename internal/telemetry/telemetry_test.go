package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestDisabledIsNoOp(t *testing.T) {
	// A scope with no recorder must not panic.
	for _, off := range []Scope{{}, To(nil)} {
		off.Emit(0, KPageFault, 1, 2, 0, 0)
		off.Trip(TripProcPanic, "no recorder")
	}
}

func TestRecordAndReadBack(t *testing.T) {
	r := New(Config{Procs: 2})
	sc := To(r)

	sc.Emit(0, KPageFault, 100, 7, 0, 0)
	sc.Emit(1, KPageFetch, 250, 7, 0, 150)
	sc.Emit(-1, KRetransmit, 300, 1, 2, 3)
	sc.Emit(5, KLinkDead, 400, 1, 2, 3) // out of range → system ring

	if got := len(r.ring(0).events()); got != 1 {
		t.Fatalf("proc 0 retained %d events, want 1", got)
	}
	sys := r.ring(-1).events()
	if len(sys) != 2 {
		t.Fatalf("system ring retained %d events, want 2", len(sys))
	}
	all := r.Events()
	if len(all) != 4 {
		t.Fatalf("Events() = %d, want 4", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("Events() not in sequence order: %d after %d", all[i].Seq, all[i-1].Seq)
		}
	}
	e := all[1]
	if e.Kind != KPageFetch || e.Proc != 1 || e.VT != 250 || e.A != 7 || e.C != 150 {
		t.Fatalf("round-trip mismatch: %+v", e)
	}

	// Event-derived metrics updated.
	m := r.Metrics().Snapshot()
	if got := m.Counters[`telemetry_events_total{kind="PageFetch"}`]; got != 1 {
		t.Fatalf("PageFetch event counter = %d, want 1", got)
	}
	if h, ok := m.Histograms["dsm_page_fetch_latency_ns"]; !ok || h.Count != 1 {
		t.Fatalf("fetch latency histogram = %+v", h)
	}
}

func TestRingBounding(t *testing.T) {
	r := New(Config{Procs: 1, Cap: 4})
	sc := To(r)
	for i := 0; i < 10; i++ {
		sc.Emit(0, KLockRequest, int64(i), int64(i), 0, 0)
	}
	evs := r.ring(0).events()
	if len(evs) != 4 {
		t.Fatalf("bounded ring retained %d, want 4", len(evs))
	}
	// Oldest retained must be event 6 (0..5 overwritten), in record order.
	for i, e := range evs {
		if want := int64(6 + i); e.A != want {
			t.Fatalf("evs[%d].A = %d, want %d", i, e.A, want)
		}
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped() = %d, want 6", r.Dropped())
	}
}

func TestUnboundedRing(t *testing.T) {
	r := New(Config{Procs: 1, Cap: -1})
	sc := To(r)
	for i := 0; i < 10000; i++ {
		sc.Emit(0, KPageFault, 0, 0, 0, 0)
	}
	if got := len(r.ring(0).events()); got != 10000 {
		t.Fatalf("unbounded ring retained %d, want 10000", got)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0", r.Dropped())
	}
}

func TestFlightDump(t *testing.T) {
	var sink bytes.Buffer
	r := New(Config{Procs: 2, FlightN: 3, FlightSink: &sink})
	sc := To(r)
	for i := 0; i < 8; i++ {
		sc.Emit(i%2, KBarrierArrive, int64(i*10), int64(i), 0, 0)
	}
	sc.Trip(TripProcPanic, "unit test trip")
	if r.Trips() != 1 {
		t.Fatalf("Trips() = %d, want 1", r.Trips())
	}
	if got := r.Metrics().Snapshot().Counters[`telemetry_trips_total{reason="ProcPanic"}`]; got != 1 {
		t.Fatalf("typed trip counter = %d, want 1", got)
	}
	out := sink.String()
	if !strings.Contains(out, "flight recorder: ProcPanic: unit test trip") {
		t.Fatalf("dump missing reason header:\n%s", out)
	}
	if !strings.Contains(out, "last 3 of 8 retained events") {
		t.Fatalf("dump missing truncation line:\n%s", out)
	}
	// Exactly the last 3 events (a=5,6,7), merged in global order.
	if strings.Count(out, "BarrierArrive") != 3 {
		t.Fatalf("dump should carry exactly 3 events:\n%s", out)
	}
	if !strings.Contains(out, "a=7") || strings.Contains(out, "a=4 ") {
		t.Fatalf("dump carries wrong tail:\n%s", out)
	}
}

// BenchmarkEmitDisabled measures the cost of an event site while recording
// is off: it must stay a single nil check (sub-nanosecond on modern
// hardware), the discipline the acceptance criteria pin down.
func BenchmarkEmitDisabled(b *testing.B) {
	var sc Scope
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.Emit(0, KPageFault, int64(i), 1, 0, 0)
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	sc := To(New(Config{Procs: 1, Cap: 1024}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.Emit(0, KPageFault, int64(i), 1, 0, 0)
	}
}

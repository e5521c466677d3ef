package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
)

func dump(r *Recorder) string {
	var b bytes.Buffer
	r.DumpFlight(&b, "test")
	return b.String()
}

// emitMix emits n events spread over every per-process ring and the
// system ring.
func emitMix(r *Recorder, from, n int) {
	sc := To(r)
	for i := from; i < from+n; i++ {
		sc.Emit(i%(r.Procs()+1)-1, KLockRequest, int64(i), int64(i), 0, 0)
	}
}

var sealCases = []struct {
	name              string
	cfg               Config
	events            int
	wantDroppedBefore bool
}{
	{"bounded-wrapped", Config{Procs: 3, Cap: 300, FlightN: 100}, 2000, true},
	{"bounded-window-larger-than-retained", Config{Procs: 2, Cap: 5, FlightN: 64}, 40, true},
	{"unbounded", Config{Procs: 4, Cap: -1, FlightN: 256}, 3000, false},
	{"few-events", Config{Procs: 2, Cap: -1, FlightN: 256}, 7, false},
}

// TestSealKeepsFlightDump: Seal changes no byte of the flight dump nor the
// overwritten count, and leaves no block in the rings.
func TestSealKeepsFlightDump(t *testing.T) {
	for _, tc := range sealCases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.FlightSink = io.Discard
			r := New(tc.cfg)
			emitMix(r, 0, tc.events)
			before, dropped := dump(r), r.Dropped()
			if (dropped > 0) != tc.wantDroppedBefore {
				t.Fatalf("Dropped() = %d before Seal", dropped)
			}
			r.Seal()
			if after := dump(r); after != before {
				t.Fatalf("dump changed across Seal:\n--- before\n%s--- after\n%s", before, after)
			}
			if r.Dropped() != dropped {
				t.Fatalf("Dropped() = %d after Seal, %d before", r.Dropped(), dropped)
			}
			for i, rg := range r.rings {
				if len(rg.blocks) != 0 || rg.n != 0 {
					t.Fatalf("ring %d keeps %d blocks, %d events after Seal", i, len(rg.blocks), rg.n)
				}
			}
		})
	}
}

// TestSealEventsAreWindow: after Seal, Events is the last FlightN events in
// Seq order; events emitted after Seal merge with that window, and with
// unbounded rings the dump matches a recorder that saw the same events and
// was never sealed.
func TestSealEventsAreWindow(t *testing.T) {
	for _, tc := range sealCases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.FlightSink = io.Discard
			r, twin := New(tc.cfg), New(tc.cfg)
			emitMix(r, 0, tc.events)
			emitMix(twin, 0, tc.events)
			all := r.Events()
			want := all[max(0, len(all)-r.cfg.FlightN):]
			r.Seal()
			got := r.Events()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Events() after Seal:\n%v\nwant the last %d retained:\n%v", got, r.cfg.FlightN, want)
			}

			// A run abandoned at its deadline keeps emitting.
			emitMix(r, tc.events, 3)
			emitMix(twin, tc.events, 3)
			got = r.Events()
			if n := len(got); n != len(want)+3 || got[n-1].Seq != uint64(tc.events+3) {
				t.Fatalf("Events() after Seal and 3 emits: %d events, last %+v", n, got[n-1])
			}
			for i := 1; i < len(got); i++ {
				if got[i].Seq <= got[i-1].Seq {
					t.Fatalf("Events() out of Seq order at %d: %d after %d", i, got[i].Seq, got[i-1].Seq)
				}
			}
			// Unbounded rings overwrite nothing, so the recorder that was
			// never sealed retains a superset and prints the same dump.
			if tc.cfg.Cap > 0 {
				return
			}
			if a, b := dump(r), dump(twin); a != b {
				t.Fatalf("sealed dump differs from the unsealed recorder's:\n--- sealed\n%s--- unsealed\n%s", a, b)
			}
		})
	}
}

// TestSealRacingEmits: emits from several goroutines racing Seal (twice)
// all survive, each once and in Seq order, when the window is wide enough
// to keep everything.
func TestSealRacingEmits(t *testing.T) {
	const procs, perProc = 4, 2000
	r := New(Config{Procs: procs, Cap: -1, FlightN: 1 << 20, FlightSink: io.Discard})
	sc := To(r)
	var wg sync.WaitGroup
	for p := -1; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				sc.Emit(p, KPageFault, int64(i), int64(i), 0, 0)
			}
		}(p)
	}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Seal()
		}()
	}
	wg.Wait()

	evs := r.Events()
	if len(evs) != (procs+1)*perProc {
		t.Fatalf("Events() = %d after racing Seal, want %d", len(evs), (procs+1)*perProc)
	}
	next := make(map[int32]int64) // per emitter, the A expected next
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("Events()[%d].Seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.A != next[e.Proc] {
			t.Fatalf("proc %d: event a=%d, want a=%d", e.Proc, e.A, next[e.Proc])
		}
		next[e.Proc]++
	}
}

package telemetry

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestRingMatchesSliceModel holds the block ring to a plain slice: a
// bounded ring retains the last cap events in record order and counts the
// rest as dropped; an unbounded one retains all. Counts straddle every
// block boundary and every wrap point.
func TestRingMatchesSliceModel(t *testing.T) {
	for _, capacity := range []int{1, 4, 255, 256, 257, 4096, -1} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			var seq atomic.Uint64
			rg := &ring{cap: capacity}
			var model []Event
			limit := 3*blockEvents + 2
			if capacity > 0 {
				limit = max(limit, 2*capacity+2)
			}
			for n := 1; n <= limit; n++ {
				e := rg.add(&seq, Event{A: int64(n)})
				if e.Seq != uint64(n) {
					t.Fatalf("event %d stamped Seq %d", n, e.Seq)
				}
				model = append(model, e)
				if !nearBoundary(n, capacity) {
					continue
				}
				want, dropped := model, uint64(0)
				if capacity > 0 && len(model) > capacity {
					want, dropped = model[len(model)-capacity:], uint64(len(model)-capacity)
				}
				got := rg.events()
				if len(got) != len(want) {
					t.Fatalf("after %d adds: %d events retained, want %d", n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("after %d adds: events()[%d] = %+v, want %+v", n, i, got[i], want[i])
					}
				}
				if rg.dropped != dropped {
					t.Fatalf("after %d adds: dropped %d, want %d", n, rg.dropped, dropped)
				}
			}
		})
	}
}

// nearBoundary reports whether n adds sit next to a block boundary or a
// wrap point of a ring of the given capacity.
func nearBoundary(n, capacity int) bool {
	near := func(m int) bool { r := n % m; return r <= 1 || r == m-1 }
	return n <= 3 || near(blockEvents) || (capacity > 1 && near(capacity))
}

// leastAllocs is testing.AllocsPerRun(runs, f) measured three times, the
// least kept: another goroutine's stray allocation lands in one
// measurement, an allocation in f in all three.
func leastAllocs(runs int, f func()) float64 {
	least := testing.AllocsPerRun(runs, f)
	for range 2 {
		least = min(least, testing.AllocsPerRun(runs, f))
	}
	return least
}

// leastAllocBytes is the fewest bytes f allocated in three calls, each
// made with the block pool emptied (two collections clear a sync.Pool).
func leastAllocBytes(f func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestRingAllocs: a full bounded ring's emit allocates nothing, and an
// unbounded ring of n events allocates its ⌈n/256⌉ blocks and no copy of
// them. Skipped under -race, where sync.Pool drops items at random.
func TestRingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	sc := To(New(Config{Procs: 1, Cap: 4096, FlightSink: io.Discard}))
	for i := 0; i <= 4096; i++ {
		sc.Emit(0, KPageFault, int64(i), 1, 0, 0)
	}
	if got := leastAllocs(1000, func() { sc.Emit(0, KPageFault, 1, 1, 0, 0) }); got != 0 {
		t.Errorf("emit into a full bounded ring allocates %v times, want 0", got)
	}

	blockBytes := uint64(unsafe.Sizeof([blockEvents]Event{}))
	for _, n := range []int{1, 255, 256, 257, 1000, 4097} {
		var seq atomic.Uint64
		got := leastAllocBytes(func() {
			rg := &ring{cap: -1}
			for i := 0; i < n; i++ {
				rg.add(&seq, Event{})
			}
			runtime.KeepAlive(rg)
		})
		// Beyond the blocks: the ring and its slice of block headers. A
		// copied block would add a whole one.
		want := uint64((n+blockEvents-1)/blockEvents) * blockBytes
		if got < want || got >= want+blockBytes/4 {
			t.Errorf("unbounded ring of %d events allocated %d bytes, want %d of blocks plus under %d", n, got, want, blockBytes/4)
		}
	}
}

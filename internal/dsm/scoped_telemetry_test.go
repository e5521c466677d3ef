package dsm

import (
	"sync"
	"testing"

	"lrcrace/internal/mem"
	"lrcrace/internal/telemetry"
)

// TestScopedRecorderIsolation runs four Systems concurrently, each bound
// to its own recorder via Config.Recorder, and asserts zero cross-talk:
// every recorder holds exactly its own run's events (counts differ per
// system so leakage cannot cancel out), its metrics registry agrees, and
// its sequence numbers are a contiguous private stream. Run under -race
// this also proves the scoped emit path is data-race-free.
func TestScopedRecorderIsolation(t *testing.T) {
	const (
		systems = 4
		procs   = 4
	)
	epochsOf := func(i int) int { return 2 + i } // 2,3,4,5: distinct per system

	recs := make([]*telemetry.Recorder, systems)
	errs := make([]error, systems)
	var wg sync.WaitGroup
	for i := 0; i < systems; i++ {
		recs[i] = telemetry.New(telemetry.Config{Procs: procs, Cap: -1})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := New(Config{
				NumProcs:   procs,
				SharedSize: 16 * 1024,
				PageSize:   1024,
				Protocol:   SingleWriter,
				Detect:     true,
				Recorder:   recs[i],
			})
			if err != nil {
				errs[i] = err
				return
			}
			base, err := s.AllocWords("words", 256)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = s.Run(func(p *Proc) {
				for e := 0; e < epochsOf(i); e++ {
					// Each proc writes its own page: traffic without races.
					p.Write(base+mem.Addr(p.ID()*1024), uint64(e))
					p.Barrier()
				}
			})
		}(i)
	}
	wg.Wait()

	for i := 0; i < systems; i++ {
		if errs[i] != nil {
			t.Fatalf("system %d: %v", i, errs[i])
		}
		// One BarrierArrive per proc per epoch, plus Run's implicit final
		// barrier (the last detection pass).
		want := procs * (epochsOf(i) + 1)
		events := recs[i].Events()
		got := 0
		seqs := make(map[uint64]bool, len(events))
		for _, e := range events {
			if e.Kind == telemetry.KBarrierArrive {
				got++
			}
			if seqs[e.Seq] {
				t.Errorf("system %d: duplicate seq %d (rings shared between recorders?)", i, e.Seq)
			}
			seqs[e.Seq] = true
		}
		if got != want {
			t.Errorf("system %d: %d BarrierArrive events, want %d (cross-talk between concurrent recorders)", i, got, want)
		}
		// Seq is assigned per recorder starting at 1; a contiguous run
		// proves no foreign emitter bumped this recorder's counter.
		for s := uint64(1); s <= uint64(len(events)); s++ {
			if !seqs[s] {
				t.Errorf("system %d: seq %d missing from its own recorder", i, s)
				break
			}
		}
		snap := recs[i].Metrics().Snapshot()
		if c := snap.Counters[`telemetry_events_total{kind="BarrierArrive"}`]; c != int64(want) {
			t.Errorf("system %d: registry counted %d BarrierArrive, want %d", i, c, want)
		}
	}
}

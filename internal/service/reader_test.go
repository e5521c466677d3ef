package service

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"lrcrace/internal/castore"
)

// TestPropertyReadersExactlyOnce is the delivery contract as a property:
// K appenders race M readers that stall at seeded random points over a
// store too small to hold the history. Whatever the interleaving, every
// reader's transcript is strictly increasing (exactly-once, in order),
// every hole in it is covered by exactly one truncated record whose Seq and
// count are exactly the hole, there is no truncated record without a hole,
// and a reader that retention never overran has the whole history. The
// durable cases run the same property over a group-committing store, where
// readers see only what the committer has published (and retention can
// drop records before they were ever visible).
func TestPropertyReadersExactlyOnce(t *testing.T) {
	const (
		appenders = 4
		perApp    = 500
		readers   = 6
		total     = appenders * perApp
	)
	for _, tc := range []struct {
		name    string
		cap     int
		durable bool
	}{
		{"overrun", 32, false},  // stalled readers lose their place
		{"keeps-up", 0, false},  // default retention holds everything
		{"one-slot", 1, false},  // the degenerate window
		{"exact", total, false}, // holds exactly the history
		{"durable/overrun", 32, true},
		{"durable/keeps-up", 0, true},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				st := NewStore(tc.cap)
				if tc.durable {
					var err error
					if st, _, err = OpenStore(t.TempDir(), tc.cap, castore.SegLogOptions{}); err != nil {
						t.Fatal(err)
					}
					defer st.Close()
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()

				transcripts := make([][]Record, readers)
				var rwg sync.WaitGroup
				for m := 0; m < readers; m++ {
					sub := st.Subscribe("", 0)
					rng := rand.New(rand.NewSource(seed*100 + int64(m)))
					rwg.Add(1)
					go func(m int) {
						defer rwg.Done()
						defer sub.Close()
						var last uint64
						for last < total {
							recs, err := sub.Next(ctx)
							if err != nil {
								t.Errorf("reader %d: %v", m, err)
								return
							}
							transcripts[m] = append(transcripts[m], recs...)
							last = recs[len(recs)-1].Seq
							// Reader 0 never stalls; the others yield a
							// seeded number of times so appenders run ahead.
							if m > 0 {
								for n := rng.Intn(40); n > 0; n-- {
									runtime.Gosched()
								}
							}
						}
					}(m)
				}

				var awg sync.WaitGroup
				for k := 0; k < appenders; k++ {
					awg.Add(1)
					go func(k int) {
						defer awg.Done()
						for i := 0; i < perApp; i++ {
							st.Append(Record{Session: fmt.Sprintf("a%d", k), Kind: KindRace, Addr: uint64(i)})
						}
					}(k)
				}
				awg.Wait()
				rwg.Wait()
				if st.Subscribers() != 0 {
					t.Errorf("%d readers still attached", st.Subscribers())
				}

				for m, tr := range transcripts {
					var prev, seen, lost uint64
					for _, r := range tr {
						if r.Seq <= prev {
							t.Fatalf("reader %d: seq %d after %d (duplicate or reordered)", m, r.Seq, prev)
						}
						if r.Kind == KindTruncated {
							var n uint64
							fmt.Sscanf(r.Detail, "%d records", &n)
							if n == 0 || n != r.Seq-prev {
								t.Fatalf("reader %d: truncated record %q at seq %d covers a hole of %d after seq %d",
									m, r.Detail, r.Seq, r.Seq-prev, prev)
							}
							lost += n
						} else {
							if r.Seq != prev+1 {
								t.Fatalf("reader %d: seq %d follows %d with no truncated record for the hole", m, r.Seq, prev)
							}
							seen++
						}
						prev = r.Seq
					}
					if prev != total || seen+lost != total {
						t.Fatalf("reader %d: ended at seq %d having seen %d and lost %d of %d", m, prev, seen, lost, total)
					}
					if tc.cap == 0 || tc.cap >= total {
						if lost != 0 {
							t.Fatalf("reader %d lost %d records though retention held everything", m, lost)
						}
						want, _, _ := st.Since(0, "", 0)
						for i := range want {
							if tr[i] != want[i] {
								t.Fatalf("reader %d: transcript[%d] = %+v, store holds %+v", m, i, tr[i], want[i])
							}
						}
					}
				}
			})
		}
	}
}

package dsm

import (
	"fmt"
	"testing"

	"lrcrace/internal/castore"
	"lrcrace/internal/mem"
)

// benchState builds a post-run process set with populated pages, bitmaps,
// and lock state: every proc owns a stripe of the segment and has raced on
// a shared word, so checkpoints carry real payloads.
func benchState(b *testing.B, n int) *System {
	b.Helper()
	s, err := New(Config{
		NumProcs:   n,
		SharedSize: 64 * 1024,
		PageSize:   1024,
		Protocol:   SingleWriter,
		Detect:     true,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.keepCkpts = true
	// Four pages per proc, every word distinct across procs and pages so
	// chunks cannot dedup by accident — only genuine structural sharing
	// (an unchanged page across epochs) may hit.
	const stripeBytes = 4 * 1024
	words, err := s.AllocWords("grid", n*stripeBytes/8)
	if err != nil {
		b.Fatal(err)
	}
	err = s.RunEpochs(2, func() EpochFunc {
		return func(p *Proc, e int32) {
			base := words + mem.Addr(p.ID()*stripeBytes)
			for w := 0; w < stripeBytes/8; w++ {
				p.Write(base+mem.Addr(w*8), uint64(p.ID()*1_000_003+w*31+int(e)))
			}
			p.Lock(0)
			p.Write(words, uint64(p.ID()))
			p.Unlock(0)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// mutatePages dirties the first `frac`-th of each proc's resident pages in
// place, simulating one epoch's write footprint between checkpoints
// (frac=1 → every resident page changed, the chunked encoder's worst
// case; frac=4 → a quarter changed, a SOR-like stencil epoch).
func mutatePages(s *System, round int, frac int) {
	for _, p := range s.procs {
		resident := 0
		for i := range p.state {
			if p.state[i] != pageInvalid {
				resident++
			}
		}
		if resident == 0 {
			continue
		}
		touch := (resident + frac - 1) / frac
		seen := 0
		for i := range p.state {
			if p.state[i] == pageInvalid {
				continue
			}
			if seen < touch {
				pb := p.seg.PageBytes(mem.PageID(i))
				pb[0] = byte(round)
				pb[len(pb)/2] = byte(round >> 8)
				p.markDirty(mem.PageID(i))
			}
			seen++
			if seen >= touch {
				break
			}
		}
	}
}

// BenchmarkCheckpointEncode measures the chunked checkpoint encoder, which
// deposits payloads in a content-addressed store and pays only for chunks
// the previous epoch did not already hold. The sub-benchmarks vary the
// per-epoch write footprint; bytes/epoch is the stored cost of one
// barrier's checkpoints across all procs.
func BenchmarkCheckpointEncode(b *testing.B) {
	for _, n := range []int{4, 8} {
		s := benchState(b, n)

		cases := []struct {
			name string
			frac int // 1/frac of resident pages dirtied per epoch
		}{
			{"chunked-unchanged", 0}, // steady state, no writes: manifests only
			{"chunked-quarter", 4},   // SOR-like stencil epoch
			{"chunked-all", 1},       // FFT-like full rewrite
		}
		for _, tc := range cases {
			tc := tc
			b.Run(fmt.Sprintf("p%d/%s", n, tc.name), func(b *testing.B) {
				st := castore.New()
				// Prime the store: epoch one pays the full closure once,
				// every page dirty, since no key the run remembered names
				// a chunk of this store.
				for _, p := range s.procs {
					clear(p.ckptClean)
					p.encodeCheckpointInto(st)
				}
				b.ResetTimer()
				var bytes int64
				for i := 0; i < b.N; i++ {
					if tc.frac > 0 {
						mutatePages(s, i+1, tc.frac)
					}
					pre := st.Stats().LiveBytes
					for _, p := range s.procs {
						m, _, _ := p.encodeCheckpointInto(st)
						bytes += int64(len(m))
					}
					bytes += st.Stats().LiveBytes - pre
				}
				b.ReportMetric(float64(bytes)/float64(b.N), "bytes/epoch")
			})
		}
	}
}

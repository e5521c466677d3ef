// Ablations of the design choices called out in DESIGN.md, each reporting
// its headline metric via ReportMetric on inputs small enough that
// `go test -bench=.` finishes in minutes. The paper's tables and figures
// have one entry point, cmd/benchtables (harness.Suite; TestSmokeTables
// runs that path). Wall-clock kernel timings (vc compare, bitmap
// intersect, message round trip, access check) live in the bench/ ledger,
// not here.
package lrcrace_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lrcrace"
	"lrcrace/internal/harness"
	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/race"
	"lrcrace/internal/vc"
)

// syntheticEpoch builds an epoch of interval records with random notices.
func syntheticEpoch(nproc, perProc, pages, noticeLen int, seed int64) []*interval.Record {
	r := rand.New(rand.NewSource(seed))
	var recs []*interval.Record
	for p := 0; p < nproc; p++ {
		for i := 1; i <= perProc; i++ {
			rec := &interval.Record{
				ID: vc.IntervalID{Proc: p, Index: vc.Index(i)},
				VC: vc.New(nproc),
			}
			rec.VC[p] = vc.Index(i)
			for k := 0; k < noticeLen; k++ {
				rec.WriteNotices = append(rec.WriteNotices, mem.PageID(r.Intn(pages)))
				rec.ReadNotices = append(rec.ReadNotices, mem.PageID(r.Intn(pages)))
			}
			interval.SortPages(rec.WriteNotices)
			interval.SortPages(rec.ReadNotices)
			recs = append(recs, rec)
		}
	}
	return recs
}

// BenchmarkAblationPageOverlap compares the two §6.2 page-list overlap
// implementations: sorted-list merge (default) versus system-page bitmaps.
func BenchmarkAblationPageOverlap(b *testing.B) {
	const pages = 512
	scratchA, scratchB := mem.NewBitmap(pages), mem.NewBitmap(pages)
	for _, noticeLen := range []int{4, 32, 128} {
		recs := syntheticEpoch(8, 8, pages, noticeLen, 42)
		// Every cross-process pair of the epoch, as the check-list build
		// visits them (all 64 intervals are pairwise concurrent).
		allPairs := func(overlap func(a, b *interval.Record) []mem.PageID) int {
			n := 0
			for i, a := range recs {
				for _, c := range recs[i+1:] {
					if a.ID.Proc != c.ID.Proc {
						n += len(overlap(a, c))
					}
				}
			}
			return n
		}
		b.Run(fmt.Sprintf("lists/notices=%d", noticeLen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += allPairs(race.OverlapViaMerge)
			}
		})
		b.Run(fmt.Sprintf("bitmaps/notices=%d", noticeLen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += allPairs(func(a, c *interval.Record) []mem.PageID {
					return race.OverlapViaBitmaps(scratchA, scratchB, a, c)
				})
			}
		})
	}
}

var benchSink int

// BenchmarkAblationProtocol compares the single-writer protocol the paper
// ran against the §6.5 multi-writer diff protocol, and the diff-derived
// write detection variant, on the Water workload.
func BenchmarkAblationProtocol(b *testing.B) {
	cfgs := []struct {
		name string
		cfg  harness.RunConfig
	}{
		{"single-writer", harness.RunConfig{App: "Water", Scale: 1, Procs: 4, Detect: true}},
		{"multi-writer", harness.RunConfig{App: "Water", Scale: 1, Procs: 4, Detect: true, DSM: lrcrace.Config{Protocol: lrcrace.MultiWriter}}},
		{"multi-writer-diff-detect", harness.RunConfig{App: "Water", Scale: 1, Procs: 4, Detect: true, DSM: lrcrace.Config{Protocol: lrcrace.MultiWriter, WritesFromDiffs: true}}},
	}
	for _, c := range cfgs {
		b.Run(c.name, func(b *testing.B) {
			var vt float64
			for i := 0; i < b.N; i++ {
				res, err := harness.Run(c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				vt = float64(res.VirtualNS) / 1e6
			}
			b.ReportMetric(vt, "virtual-ms")
		})
	}
}

// BenchmarkAblationFirstOnly measures the cost/benefit of §6.4 filtering on
// a many-epoch racy workload.
func BenchmarkAblationFirstOnly(b *testing.B) {
	run := func(b *testing.B, firstOnly bool) {
		var reports float64
		for i := 0; i < b.N; i++ {
			sys, err := lrcrace.New(lrcrace.Config{
				NumProcs: 4, SharedSize: 64 * 1024, PageSize: 1024,
				Detect: true, FirstOnly: firstOnly,
			})
			if err != nil {
				b.Fatal(err)
			}
			base, _ := sys.Alloc("arr", 64*1024-1024)
			if err := sys.Run(func(p *lrcrace.Proc) {
				for e := 0; e < 8; e++ {
					p.Write(base+lrcrace.Addr(e*1024), uint64(p.ID()))
					p.Barrier()
				}
			}); err != nil {
				b.Fatal(err)
			}
			reports = float64(len(sys.Races()))
		}
		b.ReportMetric(reports, "reports")
	}
	b.Run("all-races", func(b *testing.B) { run(b, false) })
	b.Run("first-only", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationLRCvsERC compares the lazy protocol against eager
// release consistency on a lock-intensive workload: messages per run and
// virtual time. The LRC advantage (no per-release broadcast) is the paper's
// §3.1 foundation.
func BenchmarkAblationLRCvsERC(b *testing.B) {
	run := func(b *testing.B, proto lrcrace.Protocol) {
		var msgs, vms float64
		for i := 0; i < b.N; i++ {
			sys, err := lrcrace.New(lrcrace.Config{
				NumProcs: 4, SharedSize: 16 * 1024, Protocol: proto,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctr, _ := sys.AllocWords("ctr", 1)
			if err := sys.Run(func(p *lrcrace.Proc) {
				for k := 0; k < 25; k++ {
					p.Lock(1)
					p.Write(ctr, p.Read(ctr)+1)
					p.Unlock(1)
				}
			}); err != nil {
				b.Fatal(err)
			}
			msgs = float64(sys.NetStats().TotalMessages())
			vms = float64(sys.VirtualTime()) / 1e6
		}
		b.ReportMetric(msgs, "messages")
		b.ReportMetric(vms, "virtual-ms")
	}
	b.Run("lrc-single-writer", func(b *testing.B) { run(b, lrcrace.SingleWriter) })
	b.Run("eager-rc", func(b *testing.B) { run(b, lrcrace.EagerRC) })
}

// BenchmarkAblationOnlineVsPostmortem measures what the paper's online
// approach eliminates: the per-access storage of the post-mortem trace
// pipeline (§7), alongside the online run on the same workload.
func BenchmarkAblationOnlineVsPostmortem(b *testing.B) {
	workload := func(sys *lrcrace.System) (lrcrace.Addr, func(p *lrcrace.Proc)) {
		racy, _ := sys.AllocWords("racy", 1)
		locked, _ := sys.AllocWords("locked", 1)
		return racy, func(p *lrcrace.Proc) {
			for i := 0; i < 20; i++ {
				p.Lock(0)
				p.Write(locked, p.Read(locked)+1)
				p.Unlock(0)
				p.Write(racy, uint64(p.ID()))
				p.Barrier()
			}
		}
	}
	b.Run("online", func(b *testing.B) {
		var n float64
		for i := 0; i < b.N; i++ {
			sys, err := lrcrace.New(lrcrace.Config{NumProcs: 4, SharedSize: 16 * 1024, Detect: true})
			if err != nil {
				b.Fatal(err)
			}
			_, w := workload(sys)
			if err := sys.Run(w); err != nil {
				b.Fatal(err)
			}
			n = float64(len(lrcrace.DedupRaces(sys.Races())))
		}
		b.ReportMetric(n, "distinct-races")
		b.ReportMetric(0, "trace-bytes")
	})
	b.Run("postmortem", func(b *testing.B) {
		var n, sz float64
		for i := 0; i < b.N; i++ {
			var log bytes.Buffer
			tw, err := lrcrace.NewTraceWriter(&log, 4)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := lrcrace.New(lrcrace.Config{NumProcs: 4, SharedSize: 16 * 1024, Tracer: tw})
			if err != nil {
				b.Fatal(err)
			}
			_, w := workload(sys)
			if err := sys.Run(w); err != nil {
				b.Fatal(err)
			}
			if err := tw.Flush(); err != nil {
				b.Fatal(err)
			}
			addrs, err := lrcrace.AnalyzeTrace(bytes.NewReader(log.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			n = float64(len(addrs))
			sz = float64(tw.Bytes())
		}
		b.ReportMetric(n, "distinct-races")
		b.ReportMetric(sz, "trace-bytes")
	})
}

package race

import (
	"cmp"
	"math/bits"
	"slices"

	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
)

// ShardStats counts the bitmap-comparison work performed on one shard of a
// check list. The shard owners ship these up the reduction tree alongside
// their reports so the master's Stats — and therefore the checkpointed
// race.State — match the serial detector's byte for byte.
type ShardStats struct {
	BitmapsCompared int // non-nil bitmaps fetched and compared (read+write)
	WordOverlaps    int // racing words found (before dedup)
}

// CompareShard runs step 5 of the detection procedure — the word-granularity
// bitmap comparison of §5 — over one slice of a check list. It is the
// stateless core of Detector.Compare, usable by shard-owning worker
// processes that hold no Detector: first-race filtering (§6.4) and stats
// accumulation stay at the master, which applies them when folding shard
// results (Detector.FoldShardResults).
//
// Reports are emitted in check-list order (entries ascending by interval
// pair then page, write/write before write/read before read/write within an
// entry, words ascending) — the same order Detector.Compare produces, so a
// canonical merge of shard outputs reproduces the serial report stream.
func CompareShard(layout mem.Layout, entries []CheckEntry, src BitmapSource, epoch int32) ([]Report, ShardStats) {
	return AppendShard(nil, layout, entries, src, epoch)
}

// AppendShard is CompareShard appending its reports to dst, so a caller
// that keeps one report list (the Go frontend's close-time check) grows it
// in place instead of copying a fresh slice per call.
func AppendShard(dst []Report, layout mem.Layout, entries []CheckEntry, src BitmapSource, epoch int32) ([]Report, ShardStats) {
	reports := dst
	var st ShardStats
	for _, e := range entries {
		ra, wa := src.Bitmaps(e.A, e.Page)
		rb, wb := src.Bitmaps(e.B, e.Page)
		st.BitmapsCompared += present(ra) + present(wa) + present(rb) + present(wb)
		n := len(reports)
		reports = appendReports(reports, layout, e, epoch, wa, wb, Write, Write)
		reports = appendReports(reports, layout, e, epoch, wa, rb, Write, Read)
		reports = appendReports(reports, layout, e, epoch, ra, wb, Read, Write)
		st.WordOverlaps += len(reports) - n
	}
	return reports, st
}

// present is 1 for a bitmap that was fetched and 0 for a missing one.
func present(bm mem.Bitmap) int {
	if bm == nil {
		return 0
	}
	return 1
}

// appendReports appends a report of kinds (kx, ky) for every word marked in
// both x and y, in ascending word order, reading the AND of the two
// bitmaps word by word. A nil bitmap marks nothing.
func appendReports(dst []Report, layout mem.Layout, e CheckEntry, epoch int32, x, y mem.Bitmap, kx, ky AccessKind) []Report {
	if x == nil || y == nil {
		return dst
	}
	base := layout.PageBase(e.Page)
	for i := range min(len(x), len(y)) {
		for m := x[i] & y[i]; m != 0; m &= m - 1 {
			w := i*64 + bits.TrailingZeros64(m)
			dst = append(dst, Report{
				Page:  e.Page,
				Word:  w,
				Addr:  base + mem.Addr(w*mem.WordSize),
				Epoch: epoch,
				A:     Endpoint{Interval: e.A, Kind: kx},
				B:     Endpoint{Interval: e.B, Kind: ky},
			})
		}
	}
	return dst
}

// PartitionCheckList assigns each check entry to an owning process in
// [0, nprocs), keeping all entries of a page on the same owner (so each
// word-access bitmap travels to exactly one place) and balancing owners by
// entry count. The assignment is a deterministic longest-processing-time
// greedy: pages in descending entry count take the least-loaded owner, with
// ties broken toward the lower page then the lower process — every replica
// of the barrier master computes the identical partition, which keeps
// checkpoint replay and crash re-execution byte-stable.
//
// The entries slice must be non-empty and sorted as BuildCheckList returns
// it. The result is parallel to entries (owner[i] owns entries[i]).
func PartitionCheckList(entries []CheckEntry, nprocs int) []int32 {
	owner := make([]int32, len(entries))
	if nprocs <= 1 {
		return owner
	}
	// slot is indexed by page: first the page's entry count, then, once
	// the page is placed, its owner.
	var top mem.PageID
	for _, e := range entries {
		top = max(top, e.Page)
	}
	slot := make([]int, top+1)
	for _, e := range entries {
		slot[e.Page]++
	}
	type pageLoad struct {
		page mem.PageID
		n    int
	}
	var pages []pageLoad
	for p, n := range slot {
		if n > 0 {
			pages = append(pages, pageLoad{mem.PageID(p), n})
		}
	}
	slices.SortFunc(pages, func(a, b pageLoad) int {
		return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(a.page, b.page))
	})
	load := make([]int, nprocs)
	for _, pl := range pages {
		best := 0
		for q := 1; q < nprocs; q++ {
			if load[q] < load[best] {
				best = q
			}
		}
		slot[pl.page] = best
		load[best] += pl.n
	}
	for i, e := range entries {
		owner[i] = int32(slot[e.Page])
	}
	return owner
}

// kindRank orders a report's (A, B) access-kind pair the way
// Detector.Compare emits them for one check entry: write/write, then
// write/read, then read/write. (Read/read pairs are never reported — a race
// needs at least one write.)
func kindRank(r Report) int {
	switch {
	case r.A.Kind == Write && r.B.Kind == Write:
		return 0
	case r.A.Kind == Write:
		return 1
	default:
		return 2
	}
}

// SortReports sorts reports into the canonical order the serial detector
// emits them in: by interval pair (A then B, processes before indexes), then
// page, then write/write before write/read before read/write, then word.
// Merging shard outputs and sorting with SortReports reproduces
// Detector.Compare's output stream exactly; the cross-validation tests and
// checkpoint byte-stability both rely on this.
func SortReports(reports []Report) {
	slices.SortStableFunc(reports, func(a, b Report) int {
		return cmp.Or(interval.CompareIDs(a.A.Interval, b.A.Interval),
			interval.CompareIDs(a.B.Interval, b.B.Interval), cmp.Compare(a.Page, b.Page),
			cmp.Compare(kindRank(a), kindRank(b)), cmp.Compare(a.Word, b.Word))
	})
}

// FoldShardResults merges the reduction tree's root result into the
// detector: it accumulates the shards' comparison work into Stats, restores
// the serial report order (SortReports), and applies §6.4 first-race
// filtering — leaving the detector in the exact state a serial
// Detector.Compare over the whole check list would have produced, so
// barrier-epoch checkpoints stay byte-identical across the two paths.
func (d *Detector) FoldShardResults(reports []Report, st ShardStats, epoch int32) []Report {
	d.stats.BitmapsCompared += st.BitmapsCompared
	d.stats.WordOverlaps += st.WordOverlaps
	SortReports(reports)
	return d.filterFirst(reports, epoch)
}

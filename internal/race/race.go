// Package race implements the paper's contribution: on-the-fly data-race
// detection driven by the ordering metadata of a lazy-release-consistent
// DSM.
//
// The detection procedure runs at global synchronization points (barriers),
// where the barrier master holds complete information about every interval
// of the finishing epoch:
//
//  1. Intervals carry version vectors, write notices and (this system's
//     addition) read notices.
//  2. The master enumerates pairs of intervals from different processes in
//     the current epoch and keeps the concurrent ones — a constant-time
//     version-vector check per pair.
//  3. For each concurrent pair, read/write page notices are intersected; a
//     race can only exist on a page written in both intervals, or written in
//     one and read in the other. Pairs with overlap enter the check list.
//  4. The check list travels with the barrier release; processes return the
//     word-granularity access bitmaps named by it.
//  5. The master compares bitmaps: disjoint word sets are false sharing,
//     overlapping words are data races, reported by address.
package race

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/vc"
)

// AccessKind labels one side of a race: whether the interval's access to
// the racing word was a read or a write (§5's read/write bitmap pair).
type AccessKind uint8

const (
	// Read marks an access recorded in an interval's read bitmap.
	Read AccessKind = iota
	// Write marks an access recorded in an interval's write bitmap — in
	// multi-writer mode these are derived from diffs (§6.5), so a write
	// bitmap exists exactly where a diff records a modified word.
	Write
)

// String returns "read" or "write".
func (k AccessKind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Endpoint is one access of a racing pair: which interval performed it and
// whether it was a read or a write.
type Endpoint struct {
	Interval vc.IntervalID
	Kind     AccessKind
}

// Report describes one detected data race: two concurrent accesses to the
// same shared word, at least one a write. The system reports "the address
// of the affected variable, together with the interval indexes"; symbol
// tables map the address back to a variable (the harness attaches variable
// names via the applications' layout tables).
type Report struct {
	Page  mem.PageID
	Word  int      // word index within the page
	Addr  mem.Addr // byte address of the word in the shared segment
	Epoch int32
	A, B  Endpoint
}

// WriteWrite reports whether both endpoints are writes.
func (r Report) WriteWrite() bool { return r.A.Kind == Write && r.B.Kind == Write }

// String renders the report the way races are printed for the user:
// kind, address, page/word coordinates, epoch, and the two endpoints.
func (r Report) String() string {
	kind := "read-write"
	if r.WriteWrite() {
		kind = "write-write"
	}
	return fmt.Sprintf("%s race at addr 0x%x (page %d word %d, epoch %d): %s in %v ~ %s in %v",
		kind, uint64(r.Addr), r.Page, r.Word, r.Epoch,
		r.A.Kind, r.A.Interval, r.B.Kind, r.B.Interval)
}

// CheckEntry names a concurrent interval pair and an overlapping page whose
// bitmaps must be compared — one line of the paper's "check list" (§5),
// built at the barrier master and shipped with the barrier release.
type CheckEntry struct {
	A, B vc.IntervalID
	Page mem.PageID
}

// Stats counts the work done by the comparison algorithm; these feed the
// dynamic metrics of Table 3 and the Intervals/Bitmaps overhead components
// of Figure 3.
type Stats struct {
	Epochs            int
	IntervalsTotal    int // intervals examined across all epochs
	PairComparisons   int // version-vector comparisons performed
	ConcurrentPairs   int // pairs found concurrent
	OverlappingPairs  int // concurrent pairs with page-list overlap
	IntervalsInvolved int // intervals appearing in >=1 overlapping pair
	CheckEntries      int // (pair, page) lines on check lists
	NoticesScanned    int // page-notice elements examined during overlap tests
	BitmapsCompared   int // bitmaps fetched and compared (read+write)
	WordOverlaps      int // racing words found (before dedup)
	SuppressedReports int // reports dropped by first-race filtering
}

// Options configure the detector.
type Options struct {
	// FirstOnly implements §6.4: report only "first" races — races not
	// affected by a prior race. Because a barrier orders everything before
	// it with everything after it, all first races fall in the earliest
	// epoch that contains any race; later epochs are suppressed.
	FirstOnly bool
}

// Detector is the barrier master's race-detection state. It persists across
// epochs so that first-race filtering can remember the earliest racy epoch.
type Detector struct {
	opts   Options
	layout mem.Layout
	stats  Stats

	firstRacyEpoch int32 // -1 until a race is seen

	// racyRecords retains the interval records behind reported races so
	// ExplainReport can reconstruct derivations after epoch metadata is
	// discarded.
	racyRecords *interval.Log
	reports     []Report // every report Retain was handed, in detection order

	spans []indexSpan // countIntervals' scratch
	marks []uint64
}

// NewDetector returns a detector for a segment with the given layout.
func NewDetector(l mem.Layout, opts Options) *Detector {
	return &Detector{opts: opts, layout: l, firstRacyEpoch: -1, racyRecords: interval.NewLog()}
}

// Stats returns accumulated counters.
func (d *Detector) Stats() Stats { return d.stats }

// Reports returns every race reported so far, in detection order. The
// caller must not modify the list.
func (d *Detector) Reports() []Report { return d.reports }

// BuildCheckList runs steps 2–3 of §5 on the records of one epoch: it finds
// concurrent interval pairs (a constant-time version-vector test per pair)
// and intersects their page notices, returning the check list sorted by
// interval pair then page. Records must all belong to the same epoch; intervals of
// earlier epochs are separated from them by the previous barrier and so are
// ordered with respect to them — they never need to be examined.
//
// This is the pure-function reference for steps 2–3: the DSM barrier builds
// the same list with a PartialBuilder per tree node, merges the sorted
// lists up the tree and folds them with FoldCheckLists at the root, and the
// tests (and bench/) hold that path to this one.
func (d *Detector) BuildCheckList(records []*interval.Record) []CheckEntry {
	d.stats.Epochs++
	d.stats.IntervalsTotal += len(records)
	// The caller hands records in barrier-arrival order, which depends on
	// scheduling; sort a copy by interval ID so entry orientation (A,B) and
	// report endpoints come out identical on every run of the same program.
	records = append([]*interval.Record(nil), records...)
	slices.SortFunc(records, func(a, b *interval.Record) int { return interval.CompareIDs(a.ID, b.ID) })
	var entries []CheckEntry
	examine := func(a, b *interval.Record) {
		d.stats.ConcurrentPairs++
		pages := d.overlap(a, b)
		if len(pages) == 0 {
			return
		}
		d.stats.OverlappingPairs++
		for _, p := range pages {
			entries = append(entries, CheckEntry{A: a.ID, B: b.ID, Page: p})
		}
	}
	for i := 0; i < len(records); i++ {
		for j := i + 1; j < len(records); j++ {
			a, b := records[i], records[j]
			if a.ID.Proc == b.ID.Proc {
				continue // totally ordered by program order
			}
			d.stats.PairComparisons++
			if !vc.Concurrent(a.ID, a.VC, b.ID, b.VC) {
				continue
			}
			examine(a, b)
		}
	}
	sortCheckEntries(entries)
	d.stats.IntervalsInvolved += d.countIntervals(entries)
	d.stats.CheckEntries += len(entries)
	return entries
}

// countIntervals returns the number of distinct intervals named by a
// check list. It marks each interval in a bitmap per process that spans
// the indices the list names for that process; the bitmaps are the
// detector's scratch, so a steady run of epochs allocates nothing here.
func (d *Detector) countIntervals(entries []CheckEntry) int {
	spans := d.spans[:0]
	note := func(id vc.IntervalID) {
		for len(spans) <= id.Proc {
			spans = append(spans, indexSpan{lo: math.MaxUint32})
		}
		sp := &spans[id.Proc]
		sp.lo, sp.hi = min(sp.lo, id.Index), max(sp.hi, id.Index)
	}
	for _, e := range entries {
		note(e.A)
		note(e.B)
	}
	words := 0
	for i := range spans {
		if sp := &spans[i]; sp.lo <= sp.hi {
			sp.off = words
			words += int(sp.hi-sp.lo)/64 + 1
		}
	}
	marks := slices.Grow(d.marks[:0], words)[:words]
	clear(marks)
	n := 0
	mark := func(id vc.IntervalID) {
		sp := &spans[id.Proc]
		bit := int(id.Index - sp.lo)
		w, m := &marks[sp.off+bit/64], uint64(1)<<(bit%64)
		if *w&m == 0 {
			*w |= m
			n++
		}
	}
	for _, e := range entries {
		mark(e.A)
		mark(e.B)
	}
	d.spans, d.marks = spans, marks
	return n
}

// indexSpan is the range of one process's interval indices a check list
// names, and where its bitmap starts in countIntervals' scratch.
type indexSpan struct {
	lo, hi vc.Index
	off    int
}

// sortCheckEntries establishes the canonical check-list order — interval
// pair (A then B), then page. BuildCheckList and the partial build emit it
// directly and tree nodes merge sorted lists (MergeCheckLists), which is
// what keeps the two paths byte-identical; FoldCheckLists sorts only input
// that arrives out of order. Entries that compare equal are equal, so the
// sort needs no stability.
func sortCheckEntries(entries []CheckEntry) {
	slices.SortFunc(entries, compareCheckEntries)
}

// compareCheckEntries orders check entries canonically.
func compareCheckEntries(a, b CheckEntry) int {
	switch {
	case a.A != b.A:
		return interval.CompareIDs(a.A, b.A)
	case a.B != b.B:
		return interval.CompareIDs(a.B, b.B)
	}
	return cmp.Compare(a.Page, b.Page)
}

// overlap returns the pages on which a race between a and b could exist:
// written by both, or written by one and read by the other.
func (d *Detector) overlap(a, b *interval.Record) []mem.PageID {
	d.stats.NoticesScanned += len(a.WriteNotices) + len(a.ReadNotices) +
		len(b.WriteNotices) + len(b.ReadNotices)
	return OverlapViaMerge(a, b)
}

// OverlapViaMerge is the sorted-list-merge page-overlap implementation, the
// one the detector uses. The result is a sorted page set, symmetric in
// (a, b).
func OverlapViaMerge(a, b *interval.Record) []mem.PageID {
	var pages []mem.PageID
	pages = interval.OverlapPages(a.WriteNotices, b.WriteNotices, pages)
	pages = interval.OverlapPages(a.WriteNotices, b.ReadNotices, pages)
	pages = interval.OverlapPages(a.ReadNotices, b.WriteNotices, pages)
	return dedupPages(pages)
}

// OverlapViaBitmaps is the §6.2 alternative: O(pages-in-system) bitmap
// intersection instead of the O(n²)-flavored list merge. scratchA and
// scratchB must be sized to the system's page count. It returns what
// OverlapViaMerge returns (TestPropertyPageBitmapOverlapEquivalent) and no
// detector path calls it; BenchmarkAblationPageOverlap compares their cost.
func OverlapViaBitmaps(scratchA, scratchB mem.Bitmap, a, b *interval.Record) []mem.PageID {
	setBits := func(bm mem.Bitmap, lists ...[]mem.PageID) {
		bm.Reset()
		for _, l := range lists {
			for _, p := range l {
				bm.Set(int(p))
			}
		}
	}
	var out []mem.PageID
	collect := func(words []int) {
		for _, w := range words {
			out = append(out, mem.PageID(w))
		}
	}
	// W_a ∩ (W_b ∪ R_b)
	setBits(scratchA, a.WriteNotices)
	setBits(scratchB, b.WriteNotices, b.ReadNotices)
	collect(scratchA.Overlap(scratchB, nil))
	// R_a ∩ W_b
	setBits(scratchA, a.ReadNotices)
	setBits(scratchB, b.WriteNotices)
	collect(scratchA.Overlap(scratchB, nil))
	return dedupPages(out)
}

func dedupPages(pages []mem.PageID) []mem.PageID {
	if len(pages) < 2 {
		return pages
	}
	interval.SortPages(pages)
	out := pages[:1]
	for _, p := range pages[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// BitmapSource supplies the word-access bitmaps named by check entries (§5;
// write bitmaps are diff-derived in multi-writer mode per §6.5). In the DSM
// each owner of check entries backs one from the bitmap replies of the
// second barrier round; in single-process use it is backed directly by a
// BitmapStore.
type BitmapSource interface {
	Bitmaps(id vc.IntervalID, p mem.PageID) (read, write mem.Bitmap)
}

// StoreSource adapts an interval.BitmapStore to a BitmapSource.
type StoreSource struct{ Store *interval.BitmapStore }

// Bitmaps implements BitmapSource.
func (s StoreSource) Bitmaps(id vc.IntervalID, p mem.PageID) (read, write mem.Bitmap) {
	return s.Store.Get(id, p)
}

// Compare runs step 5: the §5 word-bitmap comparison over the check list.
// It returns the data races found, applying §6.4 first-race filtering if
// enabled. epoch tags the reports. The comparison itself is CompareShard
// over the full list. This is the pure-function reference for step 5: the
// DSM barrier runs CompareShard at each owner of a slice of the list (one
// owner, process 0, unless Config.ShardedCheck) and folds the results with
// FoldShardResults, which leaves the detector in this same state.
func (d *Detector) Compare(entries []CheckEntry, src BitmapSource, epoch int32) []Report {
	reports, st := CompareShard(d.layout, entries, src, epoch)
	d.stats.BitmapsCompared += st.BitmapsCompared
	d.stats.WordOverlaps += st.WordOverlaps
	return d.filterFirst(reports, epoch)
}

// filterFirst implements §6.4: once any epoch has raced, reports from later
// epochs are "affected" races and are suppressed (a barrier orders
// everything before it with everything after it, so all first races fall in
// the earliest racy epoch).
func (d *Detector) filterFirst(reports []Report, epoch int32) []Report {
	if d.opts.FirstOnly && len(reports) > 0 {
		if d.firstRacyEpoch < 0 {
			d.firstRacyEpoch = epoch
		}
		if epoch != d.firstRacyEpoch {
			d.stats.SuppressedReports += len(reports)
			return nil
		}
	}
	return reports
}

// DedupByAddr collapses reports to one representative per (address, kind
// pair), preserving first-seen order — the form in which races are printed
// for the user (repeated dynamic instances of the same static race collapse
// to one line).
func DedupByAddr(reports []Report) []Report {
	type k struct {
		addr mem.Addr
		ww   bool
	}
	seen := make(map[k]bool)
	var out []Report
	for _, r := range reports {
		kk := k{r.Addr, r.WriteWrite()}
		if !seen[kk] {
			seen[kk] = true
			out = append(out, r)
		}
	}
	return out
}

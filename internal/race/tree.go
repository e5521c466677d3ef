package race

import (
	"math/bits"
	"slices"

	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/vc"
)

// Distributed check-list build.
//
// The DSM barrier runs steps 2–3 of the detection procedure — the
// concurrent-interval search and page-notice intersection that
// Detector.BuildCheckList performs in one call over all of an epoch's
// records — partitioned across the interior nodes of its arrival tree.
// Each node merges the interval records of its direct contributions (its
// own arrival plus one pre-merged subtree per child) and examines exactly
// the pairs that SPAN two contributions: a cross-process pair is
// cross-contribution at precisely one node, the lowest common ancestor of
// the two processes' leaves, so summed over the whole tree the examined
// pairs are exactly the cross-process pairs BuildCheckList examines, each
// once. (Under the default star, Config.BarrierTree = 0, the root is the
// only interior node and its contributions are one group per process.)
// Every node's list is in canonical order: the build emits its pairs in
// (A, B, Page) order, and a node merges its children's sorted lists with
// its own (MergeCheckLists) instead of concatenating them. The lists and
// work counters ride up the tree on TreeReduce messages; the root folds
// them (Detector.FoldCheckLists) into the detector, leaving the check list
// and race.Stats byte-identical to BuildCheckList's, the reference the
// tests hold this path to.

// BuildStats counts the interval-pair search work of one partial
// check-list build — the per-node slice of the Stats counters the serial
// BuildCheckList accumulates directly. The remaining epoch-level
// aggregates (intervals involved, check entries) depend on the merged
// result and are derived at the root by FoldCheckLists.
type BuildStats struct {
	PairComparisons  int64
	ConcurrentPairs  int64
	OverlappingPairs int64
	NoticesScanned   int64
}

// Add accumulates o into s.
func (s *BuildStats) Add(o BuildStats) {
	s.PairComparisons += o.PairComparisons
	s.ConcurrentPairs += o.ConcurrentPairs
	s.OverlappingPairs += o.OverlappingPairs
	s.NoticesScanned += o.NoticesScanned
}

// BuildPartialCheckList runs steps 2–3 of §5 over the cross-group interval
// pairs of one combining-tree node and returns the entries in canonical
// order (PartialBuilder.Build). It is stateless — callable at any process,
// not just one holding a Detector — and no option changes the build, so
// the Options argument is unused.
func BuildPartialCheckList(_ Options, groups [][]*interval.Record) ([]CheckEntry, BuildStats) {
	return new(PartialBuilder).Build(nil, groups)
}

// PartialBuilder builds partial check lists and keeps its scratch between
// builds, so a tree node that builds once per epoch allocates nothing but
// the entries it keeps. The zero value is ready to use.
type PartialBuilder struct {
	members []member
}

// member is one record of a node's contributions, with the group it
// arrived in and its page signatures.
type member struct {
	rec     *interval.Record
	group   int
	w, r    uint64 // bit p mod 64 set for every written / read page p
	notices int64  // write plus read notices
}

// pageSig folds a page list into one word: bit p mod 64 for every page p.
// Two lists whose signatures are disjoint share no page; the converse does
// not hold, since pages 64 apart share a bit, so a signature only rules
// pages out.
func pageSig(pages []mem.PageID) uint64 {
	var s uint64
	for _, p := range pages {
		s |= 1 << (uint32(p) % 64)
	}
	return s
}

// Build appends to dst the check entries of the cross-group interval pairs
// of one combining-tree node, in canonical (A, B, Page) order, and returns
// the extended list with the build's work counters. groups are the node's
// direct contributions; pairs within a single group are never examined
// here (they were already examined at a descendant, or — for same-process
// pairs — are ordered by program order and never examined at all). All the
// records of one process must arrive in the same group, which the barrier
// guarantees: a process's epoch records travel together and subtree merges
// keep them together.
//
// Every cross-group pair gets the constant-time version-vector test, and
// every concurrent pair AppendPair's page step, with the signatures
// computed once per record here: they skip work and never change the
// list. Entry orientation matches the serial build: A is the interval that
// sorts first by (process, index).
func (b *PartialBuilder) Build(dst []CheckEntry, groups [][]*interval.Record) ([]CheckEntry, BuildStats) {
	var st BuildStats
	if len(groups) < 2 {
		return dst, st
	}
	ms := b.members[:0]
	for g, recs := range groups {
		for _, r := range recs {
			ms = append(ms, member{rec: r, group: g, w: pageSig(r.WriteNotices), r: pageSig(r.ReadNotices),
				notices: int64(len(r.WriteNotices) + len(r.ReadNotices))})
		}
	}
	slices.SortFunc(ms, func(x, y member) int { return interval.CompareIDs(x.rec.ID, y.rec.ID) })
	for i := range ms {
		x := &ms[i]
		for j := i + 1; j < len(ms); j++ {
			y := &ms[j]
			if x.group == y.group || x.rec.ID.Proc == y.rec.ID.Proc {
				continue // examined below this node, or ordered by program order
			}
			st.PairComparisons++
			if !vc.Concurrent(x.rec.ID, x.rec.VC, y.rec.ID, y.rec.VC) {
				continue
			}
			st.ConcurrentPairs++
			st.NoticesScanned += x.notices + y.notices
			// AppendPair, with the signature test inline in this loop:
			// most concurrent pairs share no page.
			if m := pagesMeet(x.w, x.r, y.w, y.r); m != 0 {
				n := len(dst)
				if dst = appendPages(dst, x.rec, y.rec, m); len(dst) > n {
					st.OverlappingPairs++
				}
			}
		}
	}
	clear(ms) // hold no record past the build
	b.members = ms[:0]
	return dst, st
}

// AppendPair runs step 3 of §5 on one concurrent pair, for the barrier's
// partial build and the Go frontend alike: it appends an entry (a, b, p)
// for every page p in W_a∩(W_b∪R_b) ∪ R_a∩W_b, in ascending order — the
// pages OverlapViaMerge returns. aw, ar, bw and br are the signatures of
// a's and b's write and read notices (bit p mod 64 set for every page p);
// a pair whose signatures do not meet is skipped before any list is read.
// PartialBuilder.Build runs the same two steps with the signature test
// inline in its pair loop.
func AppendPair(dst []CheckEntry, a, b *interval.Record, aw, ar, bw, br uint64) []CheckEntry {
	if m := pagesMeet(aw, ar, bw, br); m != 0 {
		return appendPages(dst, a, b, m)
	}
	return dst
}

// pagesMeet returns the signature bits on which a's writes meet b's
// accesses or a's reads meet b's writes; zero means the pair shares no page
// that can race.
func pagesMeet(aw, ar, bw, br uint64) uint64 { return aw&(bw|br) | ar&bw }

// appendPages is AppendPair for a pair whose signatures meet in m. When
// every notice of both records names a page below 64, the signatures are
// the page sets themselves and m is the answer, read bit by bit; otherwise
// appendOverlap walks the notice lists.
func appendPages(dst []CheckEntry, a, b *interval.Record, m uint64) []CheckEntry {
	if !below64(a) || !below64(b) {
		return appendOverlap(dst, a, b)
	}
	for ; m != 0; m &= m - 1 {
		dst = append(dst, CheckEntry{A: a.ID, B: b.ID, Page: mem.PageID(bits.TrailingZeros64(m))})
	}
	return dst
}

// below64 reports whether every notice of r names a page below 64: the
// sorted lists' last pages are.
func below64(r *interval.Record) bool {
	w, rd := r.WriteNotices, r.ReadNotices
	return (len(w) == 0 || w[len(w)-1] < 64) && (len(rd) == 0 || rd[len(rd)-1] < 64)
}

// appendOverlap is AppendPair's walk over each sorted notice list, once.
func appendOverlap(dst []CheckEntry, a, b *interval.Record) []CheckEntry {
	wa, ra, wb, rb := a.WriteNotices, a.ReadNotices, b.WriteNotices, b.ReadNotices
	for (len(wa) > 0 || len(ra) > 0) && (len(wb) > 0 || len(rb) > 0) {
		var p mem.PageID // the next page a touches
		if len(ra) == 0 || len(wa) > 0 && wa[0] < ra[0] {
			p = wa[0]
		} else {
			p = ra[0]
		}
		aw, ar := popPage(&wa, p), popPage(&ra, p)
		bw, br := seekPage(&wb, p), seekPage(&rb, p)
		if aw && (bw || br) || ar && bw {
			dst = append(dst, CheckEntry{A: a.ID, B: b.ID, Page: p})
		}
	}
	return dst
}

// popPage drops p from the head of the sorted list s and reports whether
// it was there.
func popPage(s *[]mem.PageID, p mem.PageID) bool {
	if len(*s) > 0 && (*s)[0] == p {
		*s = (*s)[1:]
		return true
	}
	return false
}

// seekPage drops the pages below p from the head of the sorted list s and
// reports whether p heads what is left.
func seekPage(s *[]mem.PageID, p mem.PageID) bool {
	for len(*s) > 0 && (*s)[0] < p {
		*s = (*s)[1:]
	}
	return len(*s) > 0 && (*s)[0] == p
}

// MergeCheckLists appends to dst the entries of runs, each already in
// canonical order, as one list in canonical order. The runs of one tree
// node never share an entry (each pair meets at one node), so nothing is
// dropped. The entries are only read, so a run may be a received message's
// list; runs itself is used as scratch, its elements advanced past what
// has been merged.
func MergeCheckLists(dst []CheckEntry, runs ...[]CheckEntry) []CheckEntry {
	for {
		best := -1
		for i, r := range runs {
			if len(r) > 0 && (best < 0 || compareCheckEntries(r[0], runs[best][0]) < 0) {
				best = i
			}
		}
		if best < 0 {
			return dst
		}
		dst = append(dst, runs[best][0])
		runs[best] = runs[best][1:]
	}
}

// FoldCheckLists folds a combining tree's merged build output into the
// detector at the root: it accumulates the distributed build's work
// counters into Stats and derives the epoch-level aggregates (intervals
// involved, check entries) from the merged entries — leaving the
// detector's Stats and the returned check list byte-identical to a serial
// BuildCheckList over the epoch's full record set. nrecords is that full
// record count. The tree delivers the list in canonical order, which the
// fold checks in one pass; a list out of order is sorted in place.
func (d *Detector) FoldCheckLists(nrecords int, entries []CheckEntry, bst BuildStats) []CheckEntry {
	d.stats.Epochs++
	d.stats.IntervalsTotal += nrecords
	d.stats.PairComparisons += int(bst.PairComparisons)
	d.stats.ConcurrentPairs += int(bst.ConcurrentPairs)
	d.stats.OverlappingPairs += int(bst.OverlappingPairs)
	d.stats.NoticesScanned += int(bst.NoticesScanned)
	if !slices.IsSortedFunc(entries, compareCheckEntries) {
		sortCheckEntries(entries)
	}
	d.stats.IntervalsInvolved += d.countIntervals(entries)
	d.stats.CheckEntries += len(entries)
	return entries
}

package race

import (
	"lrcrace/internal/interval"
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
// only interior node and its contributions are one group per process.) The
// per-node partial check lists and work counters ride up the tree on
// TreeReduce messages; the root folds them (Detector.FoldCheckLists) into
// the detector, restoring the canonical order — leaving the check list and
// race.Stats byte-identical to BuildCheckList's, the reference the tests
// hold this path to.

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
// pairs of one combining-tree node. groups are the node's direct
// contributions; pairs within a single group are never examined here (they
// were already examined at a descendant, or — for same-process pairs — are
// ordered by program order and never examined at all). All the records of
// one process must arrive in the same group, which the barrier guarantees:
// a process's epoch records travel together and subtree merges keep them
// together.
//
// The function is stateless — callable at any process, not just one
// holding a Detector — and no option changes the build, so the Options
// argument is unused. Entry orientation matches the serial build: A is the
// interval that sorts first by (process, index).
func BuildPartialCheckList(_ Options, groups [][]*interval.Record) ([]CheckEntry, BuildStats) {
	var st BuildStats
	var entries []CheckEntry
	examine := func(a, b *interval.Record) {
		if interval.CompareIDs(b.ID, a.ID) < 0 {
			a, b = b, a
		}
		st.ConcurrentPairs++
		st.NoticesScanned += int64(len(a.WriteNotices) + len(a.ReadNotices) +
			len(b.WriteNotices) + len(b.ReadNotices))
		pages := OverlapViaMerge(a, b)
		if len(pages) == 0 {
			return
		}
		st.OverlappingPairs++
		for _, p := range pages {
			entries = append(entries, CheckEntry{A: a.ID, B: b.ID, Page: p})
		}
	}
	// The "very simple" all-pairs scan restricted to cross-group pairs: every
	// cross-process pair spanning two groups is version-vector-compared (and
	// counted) exactly once.
	for gi := 0; gi < len(groups); gi++ {
		for gj := gi + 1; gj < len(groups); gj++ {
			for _, a := range groups[gi] {
				for _, b := range groups[gj] {
					if a.ID.Proc == b.ID.Proc {
						continue // totally ordered by program order
					}
					st.PairComparisons++
					if !vc.Concurrent(a.ID, a.VC, b.ID, b.VC) {
						continue
					}
					examine(a, b)
				}
			}
		}
	}
	return entries, st
}

// FoldCheckLists folds a combining tree's merged build output into the
// detector at the root: it accumulates the distributed build's work
// counters into Stats, derives the epoch-level aggregates (intervals
// involved, check entries) from the merged entries, and restores the
// canonical serial order — leaving the detector's Stats and the returned
// check list byte-identical to a serial BuildCheckList over the epoch's
// full record set. nrecords is that full record count.
func (d *Detector) FoldCheckLists(nrecords int, entries []CheckEntry, bst BuildStats) []CheckEntry {
	d.stats.Epochs++
	d.stats.IntervalsTotal += nrecords
	d.stats.PairComparisons += int(bst.PairComparisons)
	d.stats.ConcurrentPairs += int(bst.ConcurrentPairs)
	d.stats.OverlappingPairs += int(bst.OverlappingPairs)
	d.stats.NoticesScanned += int(bst.NoticesScanned)
	sortCheckEntries(entries)
	d.stats.IntervalsInvolved += d.countIntervals(entries)
	d.stats.CheckEntries += len(entries)
	return entries
}

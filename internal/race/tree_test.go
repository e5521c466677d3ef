package race

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/vc"
)

// treeNodeOut is the merged state one combining-tree node ships to its
// parent in the single-process model of the distributed build.
type treeNodeOut struct {
	recs    []*interval.Record
	entries []CheckEntry
	st      BuildStats
}

// treeBuild models the distributed check-list build over a combining tree
// of the given arity (node ids 0..n-1, children of p are p*arity+1 ..
// p*arity+arity): each node runs BuildPartialCheckList over its own
// process's records plus its children's merged subtrees, exactly as the
// dsm barrier does.
func treeBuild(opts Options, byProc [][]*interval.Record, arity int) treeNodeOut {
	n := len(byProc)
	var visit func(id int) treeNodeOut
	visit = func(id int) treeNodeOut {
		groups := [][]*interval.Record{byProc[id]}
		var out treeNodeOut
		for c := arity*id + 1; c <= arity*id+arity && c < n; c++ {
			co := visit(c)
			groups = append(groups, co.recs)
			out.entries = append(out.entries, co.entries...)
			out.st.Add(co.st)
		}
		entries, st := BuildPartialCheckList(opts, groups)
		out.entries = append(out.entries, entries...)
		out.st.Add(st)
		for _, g := range groups {
			out.recs = append(out.recs, g...)
		}
		return out
	}
	return visit(0)
}

// randomEpochRecords generates a plausible epoch: each process contributes
// 1..4 intervals with ascending indexes, random notice lists over l's
// pages, and version vectors whose own entry equals the interval index.
func randomEpochRecords(r *rand.Rand, l mem.Layout, nproc int) [][]*interval.Record {
	byProc := make([][]*interval.Record, nproc)
	maxIdx := 5
	randPages := func() []mem.PageID {
		var pages []mem.PageID
		for pg := 0; pg < l.NumPages; pg++ {
			if r.Intn(4) == 0 {
				pages = append(pages, mem.PageID(pg))
			}
		}
		return pages
	}
	for p := 0; p < nproc; p++ {
		nint := 1 + r.Intn(4)
		for idx := 1; idx <= nint; idx++ {
			v := vc.New(nproc)
			for q := 0; q < nproc; q++ {
				v[q] = vc.Index(r.Intn(maxIdx + 1))
			}
			v[p] = vc.Index(idx)
			byProc[p] = append(byProc[p], &interval.Record{
				ID:           vc.IntervalID{Proc: p, Index: vc.Index(idx)},
				VC:           v,
				WriteNotices: randPages(),
				ReadNotices:  randPages(),
			})
		}
	}
	return byProc
}

// TestDistributedBuildMatchesSerial: the combining tree's folded check
// list and Stats must be byte-identical to a serial BuildCheckList over
// the same records, across arities, process counts, and both overlap
// implementations.
func TestDistributedBuildMatchesSerial(t *testing.T) {
	l := testLayout(t)
	optModes := []Options{{}}
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		nproc := 2 + r.Intn(8) // 2..9
		byProc := randomEpochRecords(r, l, nproc)
		var all []*interval.Record
		for _, g := range byProc {
			all = append(all, g...)
		}
		for _, opts := range optModes {
			for arity := 2; arity <= 4; arity++ {
				serial := NewDetector(l, opts)
				want := serial.BuildCheckList(all)

				out := treeBuild(opts, byProc, arity)
				dist := NewDetector(l, opts)
				got := dist.FoldCheckLists(len(all), out.entries, out.st)

				if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("seed %d nproc %d arity %d opts %+v:\n tree check list %v\n want           %v",
						seed, nproc, arity, opts, got, want)
				}
				if serial.Stats() != dist.Stats() {
					t.Fatalf("seed %d nproc %d arity %d opts %+v:\n tree Stats %+v\n want       %+v",
						seed, nproc, arity, opts, dist.Stats(), serial.Stats())
				}
			}
		}
	}
}

// TestBuildPartialSingleGroup: a node with a single contribution (a leaf's
// own records) has no cross-group pairs and must do no work.
func TestBuildPartialSingleGroup(t *testing.T) {
	l := testLayout(t)
	r := rand.New(rand.NewSource(7))
	byProc := randomEpochRecords(r, l, 3)
	entries, st := BuildPartialCheckList(Options{}, [][]*interval.Record{byProc[0]})
	if len(entries) != 0 || st != (BuildStats{}) {
		t.Fatalf("single-group build did work: entries=%v stats=%+v", entries, st)
	}
}

// TestFoldCheckListsCanonicalOrder: entries merged in arbitrary subtree
// order come back in the serial order after the fold.
func TestFoldCheckListsCanonicalOrder(t *testing.T) {
	l := testLayout(t)
	e1 := CheckEntry{A: vc.IntervalID{Proc: 0, Index: 1}, B: vc.IntervalID{Proc: 1, Index: 1}, Page: 2}
	e2 := CheckEntry{A: vc.IntervalID{Proc: 0, Index: 1}, B: vc.IntervalID{Proc: 1, Index: 1}, Page: 1}
	e3 := CheckEntry{A: vc.IntervalID{Proc: 0, Index: 2}, B: vc.IntervalID{Proc: 2, Index: 1}, Page: 0}
	d := NewDetector(l, Options{})
	got := d.FoldCheckLists(4, []CheckEntry{e3, e1, e2}, BuildStats{})
	want := []CheckEntry{e2, e1, e3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold order = %v, want %v", got, want)
	}
	st := d.Stats()
	if st.CheckEntries != 3 || st.IntervalsInvolved != 4 || st.IntervalsTotal != 4 || st.Epochs != 1 {
		t.Fatalf("fold stats = %+v", st)
	}
}

// TestPropertyStarAndSingleOwnerMatchReference pins the two degenerate
// topologies the DSM barrier runs when Config.BarrierTree and
// Config.ShardedCheck are off: a partial build over one group per process
// (the star: every pair meets at the root) folded with FoldCheckLists must
// equal BuildCheckList, and one CompareShard over the whole list (a shard
// round with a single owner) folded with FoldShardResults must equal
// Compare — check list, reports and Stats, over random epochs and every
// Options combination. Two epochs per detector so FirstOnly suppression is
// exercised on both sides.
func TestPropertyStarAndSingleOwnerMatchReference(t *testing.T) {
	l := testLayout(t)
	var optModes []Options
	for _, first := range []bool{false, true} {
		optModes = append(optModes, Options{FirstOnly: first})
	}
	f := func(seed int64) bool {
		for _, opts := range optModes {
			r := rand.New(rand.NewSource(seed))
			ref := NewDetector(l, opts)
			got := NewDetector(l, opts)
			for epoch := int32(0); epoch < 2; epoch++ {
				recs, store, _ := randomEpoch(r, l)
				src := StoreSource{store}
				wantList := ref.BuildCheckList(recs)
				wantReports := ref.Compare(wantList, src, epoch)

				byProc := map[int][]*interval.Record{}
				for _, rec := range recs {
					byProc[rec.ID.Proc] = append(byProc[rec.ID.Proc], rec)
				}
				var groups [][]*interval.Record
				for p := 0; p < len(byProc); p++ {
					groups = append(groups, byProc[p])
				}
				entries, bst := BuildPartialCheckList(opts, groups)
				list := got.FoldCheckLists(len(recs), entries, bst)
				cand, sst := CompareShard(l, list, src, epoch)
				reports := got.FoldShardResults(cand, sst, epoch)

				if len(list) != len(wantList) || (len(list) > 0 && !reflect.DeepEqual(list, wantList)) {
					t.Logf("seed %d opts %+v epoch %d: check list %v, want %v", seed, opts, epoch, list, wantList)
					return false
				}
				if len(reports) != len(wantReports) || (len(reports) > 0 && !reflect.DeepEqual(reports, wantReports)) {
					t.Logf("seed %d opts %+v epoch %d: reports %v, want %v", seed, opts, epoch, reports, wantReports)
					return false
				}
				if got.Stats() != ref.Stats() {
					t.Logf("seed %d opts %+v epoch %d: Stats %+v, want %+v", seed, opts, epoch, got.Stats(), ref.Stats())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

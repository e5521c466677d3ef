package race

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
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
// p*arity+arity; arity n-1 is the star): each node builds its partial list
// over its own process's records plus its children's merged subtrees, with
// the contributions in r's order as the network would deliver them, and
// merges its partial list with its children's into a list of its own,
// exactly as the dsm barrier does. One builder and one partial-list scratch
// serve every node, as they serve a DSM node across epochs. Every node's
// list must be strictly ascending in canonical order.
func treeBuild(t *testing.T, r *rand.Rand, byProc [][]*interval.Record, arity int, b *PartialBuilder, scratch *[]CheckEntry) treeNodeOut {
	t.Helper()
	n := len(byProc)
	var visit func(id int) treeNodeOut
	visit = func(id int) treeNodeOut {
		own := slices.Clone(byProc[id])
		groups := [][]*interval.Record{own}
		var out treeNodeOut
		var runs [][]CheckEntry
		for c := arity*id + 1; c <= arity*id+arity && c < n; c++ {
			co := visit(c)
			groups = append(groups, co.recs)
			runs = append(runs, co.entries)
			out.st.Add(co.st)
		}
		for _, g := range groups {
			r.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		}
		r.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
		var st BuildStats
		*scratch, st = b.Build((*scratch)[:0], groups)
		out.st.Add(st)
		total := len(*scratch)
		for _, run := range runs {
			total += len(run)
		}
		out.entries = MergeCheckLists(make([]CheckEntry, 0, total), append(runs, *scratch)...)
		for i := 1; i < len(out.entries); i++ {
			if compareCheckEntries(out.entries[i-1], out.entries[i]) >= 0 {
				t.Fatalf("arity %d node %d: list not strictly canonical at %d: %v", arity, id, i, out.entries)
			}
		}
		for _, g := range groups {
			out.recs = append(out.recs, g...)
		}
		return out
	}
	return visit(0)
}

// randomEpochRecords generates a plausible epoch over npages pages: each
// process contributes 1..4 intervals with ascending indexes, sorted write
// and read notice lists, and version vectors whose own entry equals the
// interval index. A notice list is dense (every page with probability
// 1/4) or sparse (up to three pages near 0, 64 and 128), so that once
// npages exceeds 64 pairs of records both meet on a page and only alias on
// a page signature (pages p and p+64 set the same bit).
func randomEpochRecords(r *rand.Rand, npages, nproc int) [][]*interval.Record {
	byProc := make([][]*interval.Record, nproc)
	maxIdx := 5
	randPages := func() []mem.PageID {
		var pages []mem.PageID
		if r.Intn(3) == 0 {
			for pg := 0; pg < npages; pg++ {
				if r.Intn(4) == 0 {
					pages = append(pages, mem.PageID(pg))
				}
			}
			return pages
		}
		for k := r.Intn(4); k > 0; k-- {
			pages = append(pages, mem.PageID((64*r.Intn(npages/64+1)+r.Intn(3))%npages))
		}
		slices.Sort(pages)
		return slices.Compact(pages)
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

// checkDistributedBuild holds the distributed build of one epoch to the
// serial reference under the star and under trees of arity 2..4: the
// folded check list and Stats must equal BuildCheckList's.
func checkDistributedBuild(t *testing.T, r *rand.Rand, npages int, byProc [][]*interval.Record, b *PartialBuilder, scratch *[]CheckEntry) {
	t.Helper()
	l, err := mem.NewLayout(npages*mem.DefaultPageSize, mem.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	var all []*interval.Record
	for _, g := range byProc {
		all = append(all, g...)
	}
	serial := NewDetector(l, Options{})
	want := serial.BuildCheckList(all)
	for _, arity := range []int{max(len(byProc)-1, 1), 2, 3, 4} {
		out := treeBuild(t, r, byProc, arity, b, scratch)
		dist := NewDetector(l, Options{})
		got := dist.FoldCheckLists(len(all), out.entries, out.st)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%d pages, %d procs, arity %d:\n tree check list %v\n want           %v",
				npages, len(byProc), arity, got, want)
		}
		if serial.Stats() != dist.Stats() {
			t.Fatalf("%d pages, %d procs, arity %d:\n tree Stats %+v\n want       %+v",
				npages, len(byProc), arity, dist.Stats(), serial.Stats())
		}
	}
}

// TestDistributedBuildMatchesSerial: the combining tree's folded check
// list and Stats must be byte-identical to a serial BuildCheckList over
// the same records, under the star and trees of arity 2..4, across process
// counts, with 16 pages (no two pages share a signature bit) and with 130
// and 200 (they do).
func TestDistributedBuildMatchesSerial(t *testing.T) {
	var b PartialBuilder
	var scratch []CheckEntry
	for _, npages := range []int{16, 130, 200} {
		for seed := int64(1); seed <= 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			nproc := 2 + r.Intn(8) // 2..9
			checkDistributedBuild(t, r, npages, randomEpochRecords(r, npages, nproc), &b, &scratch)
		}
	}
}

// FuzzBuildPartialCheckList drives the distributed-build check from fuzz
// input: every random decision — page count, process count, notices,
// vectors, arrival order — is read from the input bytes.
func FuzzBuildPartialCheckList(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 256)
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := rand.New(&byteSource{b: data})
		npages := []int{16, 130, 200}[r.Intn(3)]
		byProc := randomEpochRecords(r, npages, 2+r.Intn(8))
		var b PartialBuilder
		var scratch []CheckEntry
		checkDistributedBuild(t, r, npages, byProc, &b, &scratch)
	})
}

// byteSource is a rand.Source that reads its values from fuzz input, eight
// bytes each. Once the input runs out it continues with splitmix64: a
// constant would never end the rejection loop in rand.Shuffle.
type byteSource struct {
	b []byte
	n uint64
}

func (s *byteSource) Int63() int64 {
	if len(s.b) > 0 {
		var buf [8]byte
		s.b = s.b[copy(buf[:], s.b):]
		return int64(binary.LittleEndian.Uint64(buf[:]) >> 1)
	}
	s.n += 0x9e3779b97f4a7c15
	z := s.n
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

func (s *byteSource) Seed(int64) {}

// TestBuildPartialSingleGroup: a node with a single contribution (a leaf's
// own records) has no cross-group pairs and must do no work.
func TestBuildPartialSingleGroup(t *testing.T) {
	l := testLayout(t)
	r := rand.New(rand.NewSource(7))
	byProc := randomEpochRecords(r, l.NumPages, 3)
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

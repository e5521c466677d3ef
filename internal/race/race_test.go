package race

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/vc"
)

func testLayout(t *testing.T) mem.Layout {
	t.Helper()
	l, err := mem.NewLayout(16*mem.DefaultPageSize, mem.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// build constructs an interval record plus bitmaps from explicit accesses.
func build(l mem.Layout, store *interval.BitmapStore, id vc.IntervalID, v vc.VC, epoch int32, reads, writes []mem.Addr) *interval.Record {
	b := interval.NewBuilder(l)
	for _, a := range reads {
		b.NoteRead(a)
	}
	for _, a := range writes {
		b.NoteWrite(a)
	}
	return b.Finish(id, v, epoch, store)
}

// TestFigure2Scenario reproduces the paper's Figure 2: P1 writes x in σ1^1
// (before its release) and writes y in σ1^2; P2 acquires (seeing σ1^1) and
// writes in σ2^2. If P1's second write is to the same page as P2's write,
// the pair σ1^2–σ2^2 is concurrent with page overlap; whether it is a race
// depends on the words.
func TestFigure2Scenario(t *testing.T) {
	l := testLayout(t)
	x := l.PageBase(0)                  // variable x on page 0
	y := l.PageBase(0) + 8*mem.WordSize // y: same page, different word
	z := l.PageBase(3)                  // z: different page

	mk := func(secondWrite mem.Addr, p2Write mem.Addr) ([]*interval.Record, *interval.BitmapStore) {
		store := interval.NewBitmapStore()
		// P1 = proc 0: σ0^1 writes x, σ0^2 writes secondWrite.
		r11 := build(l, store, vc.IntervalID{Proc: 0, Index: 1}, vc.VC{1, 0}, 0, nil, []mem.Addr{x})
		r12 := build(l, store, vc.IntervalID{Proc: 0, Index: 2}, vc.VC{2, 0}, 0, nil, []mem.Addr{secondWrite})
		// P2 = proc 1: σ1^2 begins with the acquire matching P1's release,
		// so its vector has seen σ0^1 but not σ0^2.
		r22 := build(l, store, vc.IntervalID{Proc: 1, Index: 2}, vc.VC{1, 2}, 0, nil, []mem.Addr{p2Write})
		return []*interval.Record{r11, r12, r22}, store
	}

	t.Run("same word is a race", func(t *testing.T) {
		recs, store := mk(y, y)
		d := NewDetector(l, Options{})
		entries := d.BuildCheckList(recs)
		if len(entries) != 1 {
			t.Fatalf("check list = %v, want one entry", entries)
		}
		reports := d.Compare(entries, StoreSource{store}, 0)
		if len(reports) != 1 {
			t.Fatalf("reports = %v, want one WW race", reports)
		}
		if !reports[0].WriteWrite() || reports[0].Addr != y {
			t.Errorf("report = %+v", reports[0])
		}
	})

	t.Run("different words on same page is false sharing", func(t *testing.T) {
		recs, store := mk(y, x)
		// P2 writing x races with σ0^1's write of x? No: σ0^1 ≺ σ1^2.
		// σ0^2 wrote y, σ1^2 wrote x — same page, different words.
		d := NewDetector(l, Options{})
		entries := d.BuildCheckList(recs)
		if len(entries) != 1 {
			t.Fatalf("check list = %v, want one entry (page overlap exists)", entries)
		}
		if reports := d.Compare(entries, StoreSource{store}, 0); len(reports) != 0 {
			t.Errorf("false sharing reported as race: %v", reports)
		}
	})

	t.Run("different pages need no bitmap comparison", func(t *testing.T) {
		recs, store := mk(z, y)
		d := NewDetector(l, Options{})
		entries := d.BuildCheckList(recs)
		if len(entries) != 0 {
			t.Fatalf("check list = %v, want empty (no page overlap)", entries)
		}
		if d.Stats().ConcurrentPairs == 0 {
			t.Error("concurrent pair not found")
		}
		if reports := d.Compare(entries, StoreSource{store}, 0); len(reports) != 0 {
			t.Errorf("unexpected reports: %v", reports)
		}
		_ = store
	})
}

// TestOrderedPairNotChecked: a release/acquire-ordered pair must be skipped
// even if both touch the same word.
func TestOrderedPairNotChecked(t *testing.T) {
	l := testLayout(t)
	store := interval.NewBitmapStore()
	x := l.PageBase(1)
	a := build(l, store, vc.IntervalID{Proc: 0, Index: 1}, vc.VC{1, 0}, 0, nil, []mem.Addr{x})
	// Proc 1's interval has seen σ0^1.
	b := build(l, store, vc.IntervalID{Proc: 1, Index: 1}, vc.VC{1, 1}, 0, nil, []mem.Addr{x})
	d := NewDetector(l, Options{})
	entries := d.BuildCheckList([]*interval.Record{a, b})
	if len(entries) != 0 {
		t.Errorf("ordered pair produced check entries: %v", entries)
	}
}

// TestReadWriteRace: unsynchronized read vs write (the TSP pattern).
func TestReadWriteRace(t *testing.T) {
	l := testLayout(t)
	store := interval.NewBitmapStore()
	bound := l.PageBase(2) + 40
	w := build(l, store, vc.IntervalID{Proc: 0, Index: 1}, vc.VC{1, 0}, 0, nil, []mem.Addr{bound})
	r := build(l, store, vc.IntervalID{Proc: 1, Index: 1}, vc.VC{0, 1}, 0, []mem.Addr{bound}, nil)
	d := NewDetector(l, Options{})
	entries := d.BuildCheckList([]*interval.Record{w, r})
	reports := d.Compare(entries, StoreSource{store}, 0)
	if len(reports) != 1 {
		t.Fatalf("reports = %v, want one", reports)
	}
	rep := reports[0]
	if rep.WriteWrite() {
		t.Error("read-write race classified as write-write")
	}
	if rep.Addr != bound {
		t.Errorf("addr = %#x, want %#x", rep.Addr, bound)
	}
}

// TestSameProcessNeverRaces: intervals of one process are program-ordered.
func TestSameProcessNeverRaces(t *testing.T) {
	l := testLayout(t)
	store := interval.NewBitmapStore()
	x := l.PageBase(0)
	a := build(l, store, vc.IntervalID{Proc: 0, Index: 1}, vc.VC{1, 0}, 0, nil, []mem.Addr{x})
	b := build(l, store, vc.IntervalID{Proc: 0, Index: 2}, vc.VC{2, 0}, 0, nil, []mem.Addr{x})
	d := NewDetector(l, Options{})
	if entries := d.BuildCheckList([]*interval.Record{a, b}); len(entries) != 0 {
		t.Errorf("same-process intervals on check list: %v", entries)
	}
	if d.Stats().PairComparisons != 0 {
		t.Error("same-process pair consumed a vector comparison")
	}
}

// TestFirstRaceFiltering (§6.4): races in epochs after the earliest racy
// epoch are suppressed; races in the same epoch are all reported.
func TestFirstRaceFiltering(t *testing.T) {
	l := testLayout(t)
	d := NewDetector(l, Options{FirstOnly: true})

	epochRecords := func(epoch int32, addrs ...mem.Addr) ([]*interval.Record, *interval.BitmapStore) {
		store := interval.NewBitmapStore()
		var recs []*interval.Record
		for i, a := range addrs {
			recs = append(recs, build(l, store,
				vc.IntervalID{Proc: i, Index: vc.Index(epoch*2 + 1)},
				func() vc.VC { v := vc.New(len(addrs)); v[i] = vc.Index(epoch*2 + 1); return v }(),
				epoch, nil, []mem.Addr{a}))
		}
		return recs, store
	}

	// Epoch 0: no race (different pages).
	recs, store := epochRecords(0, l.PageBase(0), l.PageBase(1))
	if got := d.Compare(d.BuildCheckList(recs), StoreSource{store}, 0); len(got) != 0 {
		t.Fatalf("epoch 0 races = %v", got)
	}
	// Epoch 1: two races — both reported (same epoch ⇒ both "first").
	recs, store = epochRecords(1, l.PageBase(2), l.PageBase(2))
	got := d.Compare(d.BuildCheckList(recs), StoreSource{store}, 1)
	if len(got) != 1 {
		t.Fatalf("epoch 1 races = %v, want 1", got)
	}
	// Epoch 2: race suppressed.
	recs, store = epochRecords(2, l.PageBase(3), l.PageBase(3))
	got = d.Compare(d.BuildCheckList(recs), StoreSource{store}, 2)
	if len(got) != 0 {
		t.Errorf("epoch 2 races not suppressed: %v", got)
	}
	if d.Stats().SuppressedReports == 0 {
		t.Error("suppression not counted")
	}
}

func TestDedupByAddr(t *testing.T) {
	l := testLayout(t)
	mk := func(addr mem.Addr, ww bool) Report {
		k := Read
		if ww {
			k = Write
		}
		return Report{Addr: addr, Page: l.Page(addr), Word: l.WordInPage(addr),
			A: Endpoint{Kind: Write}, B: Endpoint{Kind: k}}
	}
	in := []Report{mk(8, true), mk(8, true), mk(8, false), mk(16, true)}
	out := DedupByAddr(in)
	if len(out) != 3 {
		t.Errorf("dedup kept %d, want 3 (%v)", len(out), out)
	}
}

func TestReportString(t *testing.T) {
	r := Report{Addr: 0x40, Page: 0, Word: 8, Epoch: 2,
		A: Endpoint{vc.IntervalID{Proc: 0, Index: 1}, Write},
		B: Endpoint{vc.IntervalID{Proc: 1, Index: 1}, Write}}
	s := r.String()
	if s == "" || r.A.Kind.String() != "write" || (Read).String() != "read" {
		t.Errorf("String rendering broken: %q", s)
	}
}

// randomEpoch builds a random single-epoch workload and returns records,
// store and the set of true races computed by brute force over all access
// pairs using the happens-before relation directly.
func randomEpoch(r *rand.Rand, l mem.Layout) ([]*interval.Record, *interval.BitmapStore, map[[2]mem.Addr]bool) {
	nproc := 2 + r.Intn(3)
	type access struct {
		id   vc.IntervalID
		v    vc.VC
		addr mem.Addr
		wr   bool
	}
	var accesses []access
	store := interval.NewBitmapStore()
	var recs []*interval.Record

	// Chain of vcs: each process has 1-2 intervals; random acquire edges.
	cur := make([]vc.VC, nproc)
	idx := make([]vc.Index, nproc)
	for p := range cur {
		cur[p] = vc.New(nproc)
	}
	for p := 0; p < nproc; p++ {
		k := 1 + r.Intn(2)
		for i := 0; i < k; i++ {
			if r.Intn(2) == 0 {
				cur[p].Merge(cur[r.Intn(nproc)])
			}
			idx[p]++
			cur[p][p] = idx[p]
			id := vc.IntervalID{Proc: p, Index: idx[p]}
			na := 1 + r.Intn(3)
			b := interval.NewBuilder(l)
			var myAccesses []access
			for a := 0; a < na; a++ {
				addr := mem.Addr(r.Intn(4*l.WordsPerPage())) * mem.WordSize
				wr := r.Intn(2) == 0
				if wr {
					b.NoteWrite(addr)
				} else {
					b.NoteRead(addr)
				}
				myAccesses = append(myAccesses, access{id, cur[p].Copy(), addr, wr})
			}
			recs = append(recs, b.Finish(id, cur[p], 0, store))
			accesses = append(accesses, myAccesses...)
		}
	}
	want := make(map[[2]mem.Addr]bool)
	for i := 0; i < len(accesses); i++ {
		for j := i + 1; j < len(accesses); j++ {
			a, b := accesses[i], accesses[j]
			if a.addr != b.addr || (!a.wr && !b.wr) || a.id.Proc == b.id.Proc {
				continue
			}
			if vc.Concurrent(a.id, a.v, b.id, b.v) {
				want[[2]mem.Addr{a.addr, a.addr}] = true
			}
		}
	}
	return recs, store, want
}

// TestPropertyDetectorMatchesBruteForce: the detector finds exactly the
// races a brute-force all-pairs happens-before check finds (by address).
func TestPropertyDetectorMatchesBruteForce(t *testing.T) {
	l := testLayout(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		recs, store, want := randomEpoch(r, l)
		d := NewDetector(l, Options{})
		reports := d.Compare(d.BuildCheckList(recs), StoreSource{store}, 0)
		got := make(map[[2]mem.Addr]bool)
		for _, rep := range reports {
			got[[2]mem.Addr{rep.Addr, rep.Addr}] = true
		}
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPageBitmapOverlapEquivalent: the §6.2 bitmap page-list
// overlap and AppendPair, the kernel both frontends build check entries
// with, return exactly the sorted-list merge's pages — the only input a
// check list takes from any of them — in order, for every record pair of
// random epochs. Each seed adds an epoch over exactly 64 pages, where every
// pair takes AppendPair's signature path (the pages read off the
// signatures), and one spanning 160 pages, where page signatures alias
// (pages p and p+64 share a bit) and most pairs take the notice-list walk,
// whose signature test must never drop a page the merge keeps. Both paths
// must produce entries.
func TestPropertyPageBitmapOverlapEquivalent(t *testing.T) {
	const widePages = 160
	l := testLayout(t)
	scratchA, scratchB := mem.NewBitmap(widePages), mem.NewBitmap(widePages)
	pairPages := func(a, b *interval.Record) []mem.PageID {
		var pages []mem.PageID
		for _, e := range AppendPair(nil, a, b, pageSig(a.WriteNotices), pageSig(a.ReadNotices),
			pageSig(b.WriteNotices), pageSig(b.ReadNotices)) {
			if e.A != a.ID || e.B != b.ID {
				t.Errorf("AppendPair(%v, %v) entry names %v × %v", a.ID, b.ID, e.A, e.B)
			}
			pages = append(pages, e.Page)
		}
		return pages
	}
	var viaSig, viaWalk int // pairs with entries, by the path AppendPair took
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		recs, _, _ := randomEpoch(r, l)
		for _, npages := range []int{64, widePages} {
			for _, byProc := range randomEpochRecords(r, npages, 2+r.Intn(4)) {
				recs = append(recs, byProc...)
			}
		}
		for i, a := range recs {
			for _, b := range recs[i+1:] {
				merge, bitmaps := OverlapViaMerge(a, b), OverlapViaBitmaps(scratchA, scratchB, a, b)
				ab, ba := pairPages(a, b), pairPages(b, a)
				if !slices.Equal(merge, bitmaps) || !slices.Equal(merge, ab) || !slices.Equal(merge, ba) {
					t.Logf("seed %d, %v × %v: merge %v, bitmaps %v, pair %v / %v", seed, a.ID, b.ID, merge, bitmaps, ab, ba)
					return false
				}
				switch {
				case len(merge) == 0:
				case below64(a) && below64(b):
					viaSig++
				default:
					viaWalk++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if viaSig == 0 || viaWalk == 0 {
		t.Errorf("pairs with entries: %d off the signatures, %d by the notice walk; want both paths taken", viaSig, viaWalk)
	}
}

// TestExplain covers the derivation renderer and report retention.
func TestExplain(t *testing.T) {
	l := testLayout(t)
	store := interval.NewBitmapStore()
	x := l.PageBase(2)
	a := build(l, store, vc.IntervalID{Proc: 0, Index: 3}, vc.VC{3, 0}, 0, nil, []mem.Addr{x})
	b := build(l, store, vc.IntervalID{Proc: 1, Index: 2}, vc.VC{1, 2}, 0, []mem.Addr{x}, nil)

	text := Explain(a, b)
	for _, want := range []string{"⇒ concurrent", "page 2", "vc(σ1^2)[P0] = 1 < 3", "vc(σ0^3)[P1] = 0 < 2"} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain missing %q:\n%s", want, text)
		}
	}

	// Ordered pair explains the chain.
	c := build(l, store, vc.IntervalID{Proc: 1, Index: 4}, vc.VC{3, 4}, 0, nil, []mem.Addr{x})
	if text := Explain(a, c); !strings.Contains(text, "⇒ ordered") ||
		!strings.Contains(text, "the acquire chain carried it") {
		t.Errorf("ordered Explain wrong:\n%s", text)
	}

	// Same process.
	d0 := build(l, store, vc.IntervalID{Proc: 0, Index: 4}, vc.VC{4, 0}, 0, nil, []mem.Addr{x})
	if text := Explain(a, d0); !strings.Contains(text, "program order") {
		t.Errorf("same-process Explain wrong:\n%s", text)
	}

	// Full detector path: Compare then Retain then ExplainReport.
	det := NewDetector(l, Options{})
	entries := det.BuildCheckList([]*interval.Record{a, b})
	reports := det.Compare(entries, StoreSource{store}, 0)
	if len(reports) != 1 {
		t.Fatalf("reports = %v", reports)
	}
	if _, ok := det.ExplainReport(reports[0]); ok {
		t.Error("explanation available before Retain")
	}
	det.Retain(reports, []*interval.Record{a, b})
	text2, ok := det.ExplainReport(reports[0])
	if !ok || !strings.Contains(text2, "⇒ concurrent") {
		t.Errorf("ExplainReport = %q, %v", text2, ok)
	}
	if _, ok := det.ExplainReport(Report{A: Endpoint{Interval: vc.IntervalID{Proc: 9, Index: 9}}}); ok {
		t.Error("unknown report explained")
	}
}

// TestCountIntervalsMatchesSet: countIntervals counts the distinct
// intervals of random check lists in canonical order as a set does, on
// one detector reused across lists of different shapes.
func TestCountIntervalsMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDetector(testLayout(t), Options{})
	for trial := 0; trial < 500; trial++ {
		procs, base := 1+rng.Intn(8), vc.Index(rng.Intn(1000))
		id := func() vc.IntervalID {
			return vc.IntervalID{Proc: rng.Intn(procs), Index: base + vc.Index(rng.Intn(1+rng.Intn(300)))}
		}
		entries := make([]CheckEntry, rng.Intn(60))
		want := map[vc.IntervalID]bool{}
		for i := range entries {
			entries[i] = CheckEntry{A: id(), B: id(), Page: mem.PageID(rng.Intn(4))}
			want[entries[i].A], want[entries[i].B] = true, true
		}
		sortCheckEntries(entries)
		if got := d.countIntervals(entries); got != len(want) {
			t.Fatalf("trial %d: counted %d intervals, want %d", trial, got, len(want))
		}
	}
}

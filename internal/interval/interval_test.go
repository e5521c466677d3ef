package interval

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lrcrace/internal/mem"
	"lrcrace/internal/vc"
)

func layout(t *testing.T) mem.Layout {
	t.Helper()
	l, err := mem.NewLayout(8*mem.DefaultPageSize, mem.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestBuilderFinishProducesSortedNotices(t *testing.T) {
	l := layout(t)
	b := NewBuilder(l)
	store := NewBitmapStore()
	// Touch pages out of order.
	b.NoteWrite(l.PageBase(5))
	b.NoteWrite(l.PageBase(1) + 8)
	b.NoteRead(l.PageBase(7))
	b.NoteRead(l.PageBase(0))
	b.NoteRead(l.PageBase(7) + 16) // same page twice → one notice

	id := vc.IntervalID{Proc: 2, Index: 3}
	r := b.Finish(id, vc.VC{0, 0, 3}, 1, store)

	if len(r.WriteNotices) != 2 || r.WriteNotices[0] != 1 || r.WriteNotices[1] != 5 {
		t.Errorf("write notices = %v, want [1 5]", r.WriteNotices)
	}
	if len(r.ReadNotices) != 2 || r.ReadNotices[0] != 0 || r.ReadNotices[1] != 7 {
		t.Errorf("read notices = %v, want [0 7]", r.ReadNotices)
	}
	if !b.Empty() {
		t.Error("builder not drained by Finish")
	}

	// Bitmaps landed in the store with the right word bits.
	rd, wr := store.Get(id, 7)
	if rd == nil || !rd.Get(0) || !rd.Get(2) {
		t.Errorf("read bitmap for page 7 wrong: %v", rd)
	}
	if wr != nil {
		t.Error("unexpected write bitmap for read-only page")
	}
	_, wr1 := store.Get(id, 1)
	if wr1 == nil || !wr1.Get(1) {
		t.Error("write bitmap for page 1 wrong")
	}
}

func TestOverlapPages(t *testing.T) {
	a := []mem.PageID{1, 3, 5, 9}
	b := []mem.PageID{2, 3, 9, 10}
	got := OverlapPages(a, b, nil)
	if len(got) != 2 || got[0] != 3 || got[1] != 9 {
		t.Errorf("OverlapPages = %v, want [3 9]", got)
	}
	if got := OverlapPages(a, nil, nil); len(got) != 0 {
		t.Errorf("overlap with empty = %v", got)
	}
}

func TestPropertyOverlapPages(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		toPages := func(s []uint8) []mem.PageID {
			seen := map[mem.PageID]bool{}
			var out []mem.PageID
			for _, x := range s {
				p := mem.PageID(x % 32)
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
			SortPages(out)
			return out
		}
		a, b := toPages(xs), toPages(ys)
		got := OverlapPages(a, b, nil)
		want := map[mem.PageID]bool{}
		for _, p := range a {
			for _, q := range b {
				if p == q {
					want[p] = true
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		for _, p := range got {
			if !want[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitmapStoreDiscard(t *testing.T) {
	l := layout(t)
	store := NewBitmapStore()
	for idx := 1; idx <= 4; idx++ {
		b := NewBuilder(l)
		b.NoteWrite(l.PageBase(mem.PageID(idx)))
		b.Finish(vc.IntervalID{Proc: 0, Index: vc.Index(idx)}, vc.New(1), 0, store)
	}
	otherB := NewBuilder(l)
	otherB.NoteRead(0)
	otherB.Finish(vc.IntervalID{Proc: 1, Index: 2}, vc.New(2), 0, store)

	if store.Len() != 5 {
		t.Fatalf("store len = %d, want 5", store.Len())
	}
	store.DiscardUpTo(0, 2)
	if store.Len() != 3 {
		t.Errorf("after discard len = %d, want 3", store.Len())
	}
	if _, wr := store.Get(vc.IntervalID{Proc: 0, Index: 3}, 3); wr == nil {
		t.Error("interval above horizon discarded")
	}
	if _, wr := store.Get(vc.IntervalID{Proc: 0, Index: 2}, 2); wr != nil {
		t.Error("interval below horizon survived")
	}
	if rd, _ := store.Get(vc.IntervalID{Proc: 1, Index: 2}, 0); rd == nil {
		t.Error("other process's bitmaps discarded")
	}
}

func TestLogDelta(t *testing.T) {
	log := NewLog()
	add := func(p int, i vc.Index) {
		log.Add(&Record{ID: vc.IntervalID{Proc: p, Index: i}, VC: vc.New(3)})
	}
	add(0, 1)
	add(0, 2)
	add(1, 1)
	add(2, 5)

	// A process that has seen σ0^1 and nothing else.
	d := log.Delta(vc.VC{1, 0, 0})
	if len(d) != 3 {
		t.Fatalf("delta len = %d, want 3 (%v)", len(d), d)
	}
	// Deterministic (proc, index) order.
	want := []vc.IntervalID{{Proc: 0, Index: 2}, {Proc: 1, Index: 1}, {Proc: 2, Index: 5}}
	for i, r := range d {
		if r.ID != want[i] {
			t.Errorf("delta[%d] = %v, want %v", i, r.ID, want[i])
		}
	}

	// Fully caught up: empty delta.
	if d := log.Delta(vc.VC{2, 1, 5}); len(d) != 0 {
		t.Errorf("caught-up delta = %v, want empty", d)
	}
}

func TestLogAddIdempotentAndPrune(t *testing.T) {
	log := NewLog()
	r := &Record{ID: vc.IntervalID{Proc: 0, Index: 1}, VC: vc.New(2)}
	log.Add(r)
	log.Add(r.Clone())
	if log.Len() != 1 {
		t.Errorf("len = %d after duplicate add", log.Len())
	}
	log.Add(&Record{ID: vc.IntervalID{Proc: 1, Index: 3}, VC: vc.New(2)})
	log.PruneBefore(vc.VC{1, 2})
	if log.Len() != 1 {
		t.Errorf("len after prune = %d, want 1", log.Len())
	}
	if log.Get(vc.IntervalID{Proc: 1, Index: 3}) == nil {
		t.Error("record above horizon pruned")
	}
	if log.Get(vc.IntervalID{Proc: 0, Index: 1}) != nil {
		t.Error("record below horizon survived")
	}
}

func TestRecordClone(t *testing.T) {
	r := &Record{
		ID:           vc.IntervalID{Proc: 1, Index: 2},
		VC:           vc.VC{1, 2},
		Epoch:        3,
		WriteNotices: []mem.PageID{1, 2},
		ReadNotices:  []mem.PageID{3},
	}
	c := r.Clone()
	c.VC[0] = 99
	c.WriteNotices[0] = 99
	c.ReadNotices[0] = 99
	if r.VC[0] != 1 || r.WriteNotices[0] != 1 || r.ReadNotices[0] != 3 {
		t.Error("Clone shares storage with original")
	}
}

// Property: Delta never returns a record the receiver has seen and always
// returns every record it hasn't.
func TestPropertyDeltaComplete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nproc := 2 + r.Intn(3)
		log := NewLog()
		max := make([]vc.Index, nproc)
		for n := 0; n < 20; n++ {
			p := r.Intn(nproc)
			max[p]++
			log.Add(&Record{ID: vc.IntervalID{Proc: p, Index: max[p]}, VC: vc.New(nproc)})
		}
		theirs := vc.New(nproc)
		for p := range theirs {
			if max[p] > 0 {
				theirs[p] = vc.Index(r.Intn(int(max[p]) + 1))
			}
		}
		d := log.Delta(theirs)
		got := map[vc.IntervalID]bool{}
		for _, rec := range d {
			if rec.ID.Index <= theirs[rec.ID.Proc] {
				return false // sent something already seen
			}
			got[rec.ID] = true
		}
		for p := 0; p < nproc; p++ {
			for i := theirs[p] + 1; i <= max[p]; i++ {
				if !got[vc.IntervalID{Proc: p, Index: i}] {
					return false // missed an unseen record
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBuilderNotices: Finish's notices are sorted, deduplicated,
// and exactly cover the noted pages; the stored bitmaps reproduce the
// noted word set.
func TestPropertyBuilderNotices(t *testing.T) {
	l, err := mem.NewLayout(8*mem.DefaultPageSize, mem.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := NewBuilder(l)
		store := NewBitmapStore()
		wantR := map[mem.Addr]bool{}
		wantW := map[mem.Addr]bool{}
		n := r.Intn(40)
		for i := 0; i < n; i++ {
			a := mem.Addr(r.Intn(8*l.WordsPerPage())) * mem.WordSize
			if r.Intn(2) == 0 {
				b.NoteRead(a)
				wantR[a] = true
			} else {
				b.NoteWrite(a)
				wantW[a] = true
			}
		}
		id := vc.IntervalID{Proc: 0, Index: 1}
		rec := b.Finish(id, vc.New(1), 0, store)

		sortedUnique := func(ps []mem.PageID) bool {
			for i := 1; i < len(ps); i++ {
				if ps[i] <= ps[i-1] {
					return false
				}
			}
			return true
		}
		if !sortedUnique(rec.ReadNotices) || !sortedUnique(rec.WriteNotices) {
			return false
		}
		// Every noted address's page appears; every bitmap bit was noted.
		check := func(want map[mem.Addr]bool, read bool) bool {
			pages := map[mem.PageID]bool{}
			for a := range want {
				pages[l.Page(a)] = true
			}
			notices := rec.WriteNotices
			if read {
				notices = rec.ReadNotices
			}
			if len(notices) != len(pages) {
				return false
			}
			for _, p := range notices {
				if !pages[p] {
					return false
				}
				rd, wr := store.Get(id, p)
				bm := wr
				if read {
					bm = rd
				}
				if bm == nil {
					return false
				}
				for w := 0; w < l.WordsPerPage(); w++ {
					a := l.PageBase(p) + mem.Addr(w*mem.WordSize)
					if bm.Get(w) != want[a] {
						return false
					}
				}
			}
			return true
		}
		return check(wantR, true) && check(wantW, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

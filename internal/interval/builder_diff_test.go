package interval

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lrcrace/internal/mem"
	"lrcrace/internal/vc"
)

// refModel is the map-based builder and store the page-indexed ones
// replaced, kept as the oracle of TestBuilderDifferential: footprints are
// maps from page (builder) or interval and page (store) to bitmap.
type refModel struct {
	l           mem.Layout
	read, write map[mem.PageID]mem.Bitmap
	stored      [2]map[refKey]mem.Bitmap // [0] reads, [1] writes
}

type refKey struct {
	id   vc.IntervalID
	page mem.PageID
}

func newRefModel(l mem.Layout) *refModel {
	m := &refModel{l: l, read: map[mem.PageID]mem.Bitmap{}, write: map[mem.PageID]mem.Bitmap{}}
	m.stored[0], m.stored[1] = map[refKey]mem.Bitmap{}, map[refKey]mem.Bitmap{}
	return m
}

func (m *refModel) note(side map[mem.PageID]mem.Bitmap, a mem.Addr) {
	p := m.l.Page(a)
	if side[p] == nil {
		side[p] = mem.NewBitmap(m.l.WordsPerPage())
	}
	side[p].Set(m.l.WordInPage(a))
}

func (m *refModel) finish(id vc.IntervalID, v vc.VC, epoch int32) *Record {
	r := &Record{ID: id, VC: v.Copy(), Epoch: epoch}
	for w, side := range []map[mem.PageID]mem.Bitmap{m.read, m.write} {
		var pages []mem.PageID
		for p, bm := range side {
			pages = append(pages, p)
			m.stored[w][refKey{id, p}] = bm
		}
		sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
		if w == 0 {
			r.ReadNotices = pages
		} else {
			r.WriteNotices = pages
		}
	}
	m.read, m.write = map[mem.PageID]mem.Bitmap{}, map[mem.PageID]mem.Bitmap{}
	return r
}

func (m *refModel) entries() []StoredBitmap {
	var out []StoredBitmap
	for w, side := range m.stored {
		start := len(out)
		for k, bm := range side {
			out = append(out, StoredBitmap{ID: k.id, Page: k.page, Write: w == 1, Bits: bm})
		}
		part := out[start:]
		sort.Slice(part, func(i, j int) bool {
			a, b := part[i], part[j]
			if a.ID != b.ID {
				return CompareIDs(a.ID, b.ID) < 0
			}
			return a.Page < b.Page
		})
	}
	return out
}

func (m *refModel) discard(drop func(vc.IntervalID) bool) {
	for _, side := range m.stored {
		for k := range side {
			if drop(k.id) {
				delete(side, k)
			}
		}
	}
}

// TestBuilderDifferential drives random read/write/finish/discard streams
// through Builder + BitmapStore and through the map-based reference model,
// demanding identical Records, Entries() and Get results throughout. Two
// builders (two processes) share one store and are each reused across many
// intervals; intervals are often one-sided (reads only, writes only) or
// empty, and pages repeat across intervals so a slot not cleared by Finish
// would leak a stale bitmap into the next one.
func TestBuilderDifferential(t *testing.T) {
	l, err := mem.NewLayout(16*512, 512)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const procs = 2
		store := NewBitmapStore()
		var bld [procs]*Builder
		var ref [procs]*refModel
		var idx [procs]vc.Index
		shared := newRefModel(l) // owns the reference store
		for p := range bld {
			bld[p] = NewBuilder(l)
			ref[p] = newRefModel(l)
			ref[p].stored = shared.stored
		}
		var ids []vc.IntervalID

		check := func(when string) {
			t.Helper()
			got, want := store.Entries(), shared.entries()
			if len(got) != store.Len() {
				t.Fatalf("seed %d %s: Len() = %d, Entries has %d", seed, when, store.Len(), len(got))
			}
			if !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
				t.Fatalf("seed %d %s: Entries differ:\n got %v\nwant %v", seed, when, got, want)
			}
			for _, id := range ids {
				for pg := mem.PageID(0); int(pg) < l.NumPages; pg++ {
					rd, wr := store.Get(id, pg)
					wrd, wwr := shared.stored[0][refKey{id, pg}], shared.stored[1][refKey{id, pg}]
					if !reflect.DeepEqual(rd, wrd) || !reflect.DeepEqual(wr, wwr) {
						t.Fatalf("seed %d %s: Get(%v, %d) = %v,%v want %v,%v", seed, when, id, pg, rd, wr, wrd, wwr)
					}
				}
			}
		}

		for step := 0; step < 400; step++ {
			p := rng.Intn(procs)
			switch op := rng.Intn(20); {
			case op < 15: // a burst of accesses, usually one-sided
				mode := rng.Intn(4) // 0 reads, 1 writes, 2-3 mixed
				for i := rng.Intn(12); i > 0; i-- {
					a := mem.Addr(rng.Intn(l.Size()/mem.WordSize) * mem.WordSize)
					if rng.Intn(3) > 0 {
						a %= mem.Addr(4 * l.PageSize) // favour a few hot pages
					}
					if mode == 1 || (mode >= 2 && rng.Intn(2) == 0) {
						bld[p].NoteWrite(a)
						ref[p].note(ref[p].write, a)
					} else {
						bld[p].NoteRead(a)
						ref[p].note(ref[p].read, a)
					}
				}
				if got, want := bld[p].BitmapCount(), len(ref[p].read)+len(ref[p].write); got != want {
					t.Fatalf("seed %d: BitmapCount = %d, want %d", seed, got, want)
				}
				for pg := mem.PageID(0); int(pg) < l.NumPages; pg++ {
					if got, want := bld[p].WrotePage(pg), ref[p].write[pg] != nil; got != want {
						t.Fatalf("seed %d: WrotePage(%d) = %v, want %v", seed, pg, got, want)
					}
				}
			case op < 19: // close the interval (possibly empty)
				idx[p]++
				id := vc.IntervalID{Proc: p, Index: idx[p]}
				v := vc.VC{idx[0], idx[1]}
				got := bld[p].Finish(id, v, int32(step), store)
				want := ref[p].finish(id, v, int32(step))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: Finish(%v) = %+v, want %+v", seed, id, got, want)
				}
				if !bld[p].Empty() {
					t.Fatalf("seed %d: builder not empty after Finish", seed)
				}
				ids = append(ids, id)
				check("after finish")
			default: // garbage-collect
				hi := vc.Index(rng.Intn(int(idx[p]) + 1))
				store.DiscardUpTo(p, hi)
				shared.discard(func(id vc.IntervalID) bool { return id.Proc == p && id.Index <= hi })
				check("after discard")
			}
		}

		// The checkpoint-restore path: rebuilding a store from Entries()
		// through Put, in order or shuffled, reproduces it.
		ents := store.Entries()
		rng.Shuffle(len(ents), func(i, j int) { ents[i], ents[j] = ents[j], ents[i] })
		rebuilt := NewBitmapStore()
		for _, en := range ents {
			rebuilt.Put(en.ID, en.Page, en.Write, en.Bits)
		}
		if got, want := rebuilt.Entries(), store.Entries(); !reflect.DeepEqual(got, want) && len(want) > 0 {
			t.Fatalf("seed %d: store rebuilt through Put differs", seed)
		}
	}
}

// TestNoteAllocs: recording an access to a page the interval has already
// touched allocates nothing — it is an index and a bit-set.
func TestNoteAllocs(t *testing.T) {
	l := layout(t)
	b := NewBuilder(l)
	addrs := []mem.Addr{l.PageBase(1), l.PageBase(6) + 40, l.PageBase(3) + 8}
	for _, a := range addrs {
		b.NoteRead(a)
		b.NoteWrite(a)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		a := addrs[i%len(addrs)] + mem.Addr(i%64*mem.WordSize)
		b.NoteRead(a)
		b.NoteWrite(a)
		i++
	}); n != 0 {
		t.Errorf("NoteRead+NoteWrite on touched pages: %v allocs per run, want 0", n)
	}
}

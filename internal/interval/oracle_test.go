package interval

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lrcrace/internal/mem"
	"lrcrace/internal/vc"
)

// The map-keyed Log and BitmapStore below are the stores' first
// implementation, kept as the oracle the per-process ordered slices are
// held to: every enumeration walks the whole map and sorts.

type mapLog struct{ byID map[vc.IntervalID]*Record }

func newMapLog() *mapLog { return &mapLog{byID: make(map[vc.IntervalID]*Record)} }

func (l *mapLog) Add(r *Record) {
	if _, ok := l.byID[r.ID]; !ok {
		l.byID[r.ID] = r
	}
}

func (l *mapLog) Get(id vc.IntervalID) *Record { return l.byID[id] }

func (l *mapLog) Len() int { return len(l.byID) }

func (l *mapLog) Records() []*Record { return l.DeltaCapped(nil, nil) }

// DeltaCapped with a nil theirs is every record.
func (l *mapLog) DeltaCapped(theirs, cap vc.VC) []*Record {
	var out []*Record
	for id, r := range l.byID {
		if theirs != nil && id.Index <= theirs[id.Proc] {
			continue
		}
		if cap != nil && id.Index > cap[id.Proc] {
			continue
		}
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b *Record) int { return CompareIDs(a.ID, b.ID) })
	return out
}

func (l *mapLog) PruneBefore(horizon vc.VC) {
	for id := range l.byID {
		if id.Index <= horizon[id.Proc] {
			delete(l.byID, id)
		}
	}
}

type mapBitmapStore struct {
	byID map[vc.IntervalID]*Footprint
	n    int
}

// setIsNew is pageBits.set reporting whether p was new.
func setIsNew(pb *pageBits, p mem.PageID, bm mem.Bitmap) bool {
	_, found := slices.BinarySearch(pb.pages, p)
	pb.set(p, bm)
	return !found
}

func newMapBitmapStore() *mapBitmapStore {
	return &mapBitmapStore{byID: make(map[vc.IntervalID]*Footprint)}
}

func (s *mapBitmapStore) Get(id vc.IntervalID, p mem.PageID) (read, write mem.Bitmap) {
	return s.byID[id].Get(p)
}

func (s *mapBitmapStore) Put(id vc.IntervalID, p mem.PageID, write bool, bm mem.Bitmap) {
	fp := s.byID[id]
	if fp == nil {
		fp = &Footprint{}
		s.byID[id] = fp
	}
	side := &fp.read
	if write {
		side = &fp.write
	}
	if setIsNew(side, p, bm) {
		s.n++
	}
}

func (s *mapBitmapStore) DiscardUpTo(proc int, hi vc.Index) {
	for id, fp := range s.byID {
		if id.Proc == proc && id.Index <= hi {
			s.n -= fp.count()
			delete(s.byID, id)
		}
	}
}

func (s *mapBitmapStore) Len() int { return s.n }

func (s *mapBitmapStore) Entries() []StoredBitmap {
	ids := make([]vc.IntervalID, 0, len(s.byID))
	for id := range s.byID {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, CompareIDs)
	out := make([]StoredBitmap, 0, s.n)
	for _, write := range []bool{false, true} {
		for _, id := range ids {
			side := &s.byID[id].read
			if write {
				side = &s.byID[id].write
			}
			for i, p := range side.pages {
				out = append(out, StoredBitmap{ID: id, Page: p, Write: write, Bits: side.bits[i]})
			}
		}
	}
	return out
}

// oracleIndex draws an interval index: mostly small so that adds collide
// and arrive out of order, sometimes the largest index, whose successor
// would wrap.
func oracleIndex(rng *rand.Rand) vc.Index {
	if rng.Intn(16) == 0 {
		return math.MaxUint32
	}
	return vc.Index(rng.Intn(24))
}

func oracleVC(rng *rand.Rand, n int) vc.VC {
	v := vc.New(n)
	for q := range v {
		v[q] = oracleIndex(rng)
	}
	return v
}

// TestLogMatchesMapOracle drives the ordered Log and the map oracle with
// one seeded sequence of operations and requires identical answers.
func TestLogMatchesMapOracle(t *testing.T) {
	const nprocs = 4
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewLog(), newMapLog()
		for step := 0; step < 600; step++ {
			id := vc.IntervalID{Proc: rng.Intn(nprocs), Index: oracleIndex(rng)}
			switch op := rng.Intn(10); {
			case op < 5: // in-order, out-of-order and duplicate adds alike
				r := &Record{ID: id, VC: vc.New(nprocs)}
				got.Add(r)
				want.Add(r)
			case op == 5:
				if g, w := got.Get(id), want.Get(id); g != w {
					t.Fatalf("seed %d step %d: Get(%v) = %v, want %v", seed, step, id, g, w)
				}
			case op == 6:
				theirs := oracleVC(rng, nprocs)
				if g, w := got.Delta(theirs), want.DeltaCapped(theirs, nil); !slices.Equal(g, w) {
					t.Fatalf("seed %d step %d: Delta(%v) = %d records, want %d", seed, step, theirs, len(g), len(w))
				}
			case op == 7:
				theirs, cap := oracleVC(rng, nprocs), oracleVC(rng, nprocs)
				if g, w := got.DeltaCapped(theirs, cap), want.DeltaCapped(theirs, cap); !slices.Equal(g, w) {
					t.Fatalf("seed %d step %d: DeltaCapped(%v, %v) = %d records, want %d",
						seed, step, theirs, cap, len(g), len(w))
				}
			case op == 8:
				if g, w := got.Records(), want.Records(); !slices.Equal(g, w) {
					t.Fatalf("seed %d step %d: Records = %d records, want %d", seed, step, len(g), len(w))
				}
			default:
				if rng.Intn(4) == 0 {
					horizon := oracleVC(rng, nprocs)
					got.PruneBefore(horizon)
					want.PruneBefore(horizon)
				}
			}
			if g, w := got.Len(), want.Len(); g != w {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, g, w)
			}
		}
	}
}

// TestBitmapStoreMatchesMapOracle is TestLogMatchesMapOracle for the
// bitmap store.
func TestBitmapStoreMatchesMapOracle(t *testing.T) {
	const nprocs, npages = 3, 6
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewBitmapStore(), newMapBitmapStore()
		for step := 0; step < 600; step++ {
			id := vc.IntervalID{Proc: rng.Intn(nprocs), Index: oracleIndex(rng)}
			pg := mem.PageID(rng.Intn(npages))
			switch op := rng.Intn(10); {
			case op < 5:
				bm := mem.NewBitmap(64)
				bm.Set(rng.Intn(64))
				write := rng.Intn(2) == 0
				got.Put(id, pg, write, bm)
				want.Put(id, pg, write, bm)
			case op < 7:
				gr, gw := got.Get(id, pg)
				wr, ww := want.Get(id, pg)
				if !reflect.DeepEqual(gr, wr) || !reflect.DeepEqual(gw, ww) {
					t.Fatalf("seed %d step %d: Get(%v, %d) = %v %v, want %v %v", seed, step, id, pg, gr, gw, wr, ww)
				}
			case op < 9:
				if g, w := got.Entries(), want.Entries(); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d step %d: Entries differ:\n%v\n%v", seed, step, g, w)
				}
			default:
				got.DiscardUpTo(id.Proc, id.Index)
				want.DiscardUpTo(id.Proc, id.Index)
			}
			if g, w := got.Len(), want.Len(); g != w {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, g, w)
			}
		}
	}
}

// TestLogAllocs: a delta allocates its result slice and nothing else, and
// logging records in index order costs at most one allocation per record
// amortized (the per-process slices grow by doubling).
func TestLogAllocs(t *testing.T) {
	const nprocs, perProc = 8, 32
	recs := make([]*Record, 0, nprocs*perProc)
	for i := 1; i <= perProc; i++ {
		for q := 0; q < nprocs; q++ {
			recs = append(recs, &Record{ID: vc.IntervalID{Proc: q, Index: vc.Index(i)}, VC: vc.New(nprocs)})
		}
	}
	log := NewLog()
	adds := testing.AllocsPerRun(20, func() {
		log = NewLog()
		for _, r := range recs {
			log.Add(r)
		}
	})
	if per := adds / float64(len(recs)); per > 1 {
		t.Errorf("in-order Add: %.2f allocations per record, want at most 1", per)
	}
	theirs, cap := vc.New(nprocs), vc.New(nprocs)
	for q := range theirs {
		theirs[q], cap[q] = perProc/4, 3*perProc/4
	}
	if n := testing.AllocsPerRun(20, func() { _ = log.DeltaCapped(theirs, cap) }); n > 1 {
		t.Errorf("DeltaCapped: %.0f allocations, want at most 1 (the result)", n)
	}
	if n := testing.AllocsPerRun(20, func() { _ = log.Delta(cap) }); n > 1 {
		t.Errorf("Delta: %.0f allocations, want at most 1 (the result)", n)
	}
}

// Package interval implements LRC interval records and the bookkeeping
// around them: write notices, the read notices this paper adds, per-interval
// word-access bitmaps, and the per-process log of known intervals with the
// delta computation used to piggyback consistency information on
// synchronization messages.
package interval

import (
	"cmp"
	"slices"
	"sort"
	"testing"

	"lrcrace/internal/mem"
	"lrcrace/internal/vc"
)

// Record describes one interval: who created it, its version vector, the
// barrier epoch it belongs to, and the pages it wrote (write notices) and —
// the modification this system makes to CVM — the pages it read (read
// notices). Interval structures "contain version vectors that identify the
// logical time associated with the interval, and permit checks for
// concurrency".
type Record struct {
	ID    vc.IntervalID
	VC    vc.VC
	Epoch int32

	// WriteNotices and ReadNotices are sorted page lists.
	WriteNotices []mem.PageID
	ReadNotices  []mem.PageID
}

// Clone returns a deep copy of r.
func (r *Record) Clone() *Record {
	c := &Record{ID: r.ID, VC: r.VC.Copy(), Epoch: r.Epoch}
	c.WriteNotices = append([]mem.PageID(nil), r.WriteNotices...)
	c.ReadNotices = append([]mem.PageID(nil), r.ReadNotices...)
	return c
}

// SortPages sorts a page list in place (notices are kept sorted so that
// membership tests and overlap scans are cheap).
func SortPages(s []mem.PageID) { slices.Sort(s) }

// OverlapPages appends to dst every page that appears in both sorted lists
// and returns the result. This is the page-granularity pre-filter: only
// pages accessed by both intervals of a concurrent pair can carry a race,
// and only those proceed to bitmap comparison.
func OverlapPages(a, b []mem.PageID, dst []mem.PageID) []mem.PageID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// Builder accumulates the access footprint of the process's current
// interval: which pages were read/written, and per-page word bitmaps. As in
// the paper's analysis routine, recording an access is an index into a
// page-sized array plus one bit-set: the bitmaps of each side live in a
// slice indexed by PageID (nil until the page's first touch in the
// interval), and the pages touched are listed on the side so that closing
// the interval visits only them.
//
// A Builder whose owner knows when an interval's bitmaps will never be read
// again hands them back with Recycle, and later intervals reuse them: the
// Go frontend does, at its knowledge horizon. The DSM never does, since its
// bitmaps stay readable in the BitmapStore, in checkpoints and in the
// bitmap replies the barrier's shard owners hold.
type Builder struct {
	layout mem.Layout
	read   side
	write  side

	// What Recycle handed back, for the next closes to reuse.
	freeRecs []*Record
	freeFPs  []*Footprint
	freeBits []mem.Bitmap
}

// side is one access direction of a Builder.
type side struct {
	bits  []mem.Bitmap // indexed by PageID; nil = untouched this interval
	pages []mem.PageID // the non-nil slots of bits, in first-touch order
}

// touch gives page p of side s a cleared bitmap on its first access of the
// interval: a recycled one if Recycle handed any back, else a new one.
func (b *Builder) touch(s *side, p mem.PageID) mem.Bitmap {
	bm := popFree(&b.freeBits)
	if bm == nil {
		bm = mem.NewBitmap(b.layout.WordsPerPage())
	} else {
		bm.Reset()
	}
	s.bits[p] = bm
	s.pages = append(s.pages, p)
	return bm
}

// drain sorts the touched-page list — it is the side's notice list — and
// moves it with the matching bitmaps into dst, leaving the side empty. The
// page array dst held, if any (a recycled footprint's), becomes the side's
// list for the next interval, and dst's bitmap slice is reused if it is
// large enough.
func (s *side) drain(dst *pageBits) {
	SortPages(s.pages)
	spare := dst.pages[:0]
	dst.pages = s.pages
	if n := len(s.pages); cap(dst.bits) < n {
		dst.bits = make([]mem.Bitmap, n)
	} else {
		dst.bits = dst.bits[:n]
	}
	for i, p := range dst.pages {
		dst.bits[i] = s.bits[p]
		s.bits[p] = nil
	}
	s.pages = spare
}

// NewBuilder returns a Builder for the given segment layout.
func NewBuilder(l mem.Layout) *Builder {
	return &Builder{
		layout: l,
		read:   side{bits: make([]mem.Bitmap, l.NumPages)},
		write:  side{bits: make([]mem.Bitmap, l.NumPages)},
	}
}

// NoteRead records a read of the word at a.
func (b *Builder) NoteRead(a mem.Addr) {
	p := b.layout.Page(a)
	bm := b.read.bits[p]
	if bm == nil {
		bm = b.touch(&b.read, p)
	}
	bm.Set(b.layout.WordInPage(a))
}

// NoteWrite records a write of the word at a.
func (b *Builder) NoteWrite(a mem.Addr) {
	p := b.layout.Page(a)
	bm := b.write.bits[p]
	if bm == nil {
		bm = b.touch(&b.write, p)
	}
	bm.Set(b.layout.WordInPage(a))
}

// Empty reports whether no accesses have been recorded.
func (b *Builder) Empty() bool { return len(b.read.pages) == 0 && len(b.write.pages) == 0 }

// BitmapCount returns the number of per-page bitmaps currently accumulated
// (read plus write) — the bitmaps the next Finish will deposit.
func (b *Builder) BitmapCount() int { return len(b.read.pages) + len(b.write.pages) }

// FinishFootprint turns the accumulated accesses into a Record with the
// given identity and the interval's Footprint, and drains the builder for
// reuse. The record keeps v as its VC, so the caller passes a clock that no
// one writes to afterwards. The record and the footprint share the sorted
// notice lists; neither modifies them. The footprint is nil when the
// interval recorded no access. Both come from what Recycle handed back, if
// anything.
func (b *Builder) FinishFootprint(id vc.IntervalID, v vc.VC, epoch int32) (*Record, *Footprint) {
	r := popFree(&b.freeRecs)
	if r == nil {
		r = new(Record)
	}
	*r = Record{ID: id, VC: v, Epoch: epoch}
	if b.Empty() {
		return r, nil
	}
	fp := popFree(&b.freeFPs)
	if fp == nil {
		fp = new(Footprint)
	}
	b.read.drain(&fp.read)
	b.write.drain(&fp.write)
	r.ReadNotices, r.WriteNotices = fp.read.pages, fp.write.pages
	return r, fp
}

// Finish is FinishFootprint with the footprint deposited into store, keyed
// by the interval, where it stays until a barrier check list requests it or
// the epoch is garbage collected. The record takes a copy of v.
func (b *Builder) Finish(id vc.IntervalID, v vc.VC, epoch int32, store *BitmapStore) *Record {
	r, fp := b.FinishFootprint(id, v.Copy(), epoch)
	if store != nil && fp != nil {
		store.put(id, fp)
	}
	return r
}

// poisonRecycled makes Recycle fill every bitmap it takes back with ones in
// test binaries, so a reader that kept one past its record's retirement
// sees words no interval touched — false races in every pinned suite —
// instead of going unnoticed. The Builder clears a bitmap only when it
// hands it out again. Other binaries never poison: it costs time on every
// retirement.
var poisonRecycled = testing.Testing()

// Recycle hands back a record and its footprint (nil for an interval that
// recorded no access), both made by this Builder's FinishFootprint, for
// later closes to reuse: the Record, the Footprint, its bitmaps, its notice
// lists and its bitmap slices. The caller states that nothing will read
// any of them again, and must not touch them afterwards. The record's VC is
// never reused — it may be shared, as the Go frontend's release clock is —
// so Recycle only drops it.
//
// Only a Builder whose intervals are checked where they are built may
// recycle: the DSM's builders never do, because their footprints stay in
// the BitmapStore, and its bitmaps travel by reference in frozen
// BitmapReply messages.
func (b *Builder) Recycle(r *Record, fp *Footprint) {
	*r = Record{}
	b.freeRecs = append(b.freeRecs, r)
	if fp == nil {
		return
	}
	b.reclaim(&fp.read)
	b.reclaim(&fp.write)
	b.freeFPs = append(b.freeFPs, fp)
}

// popFree removes and returns the last entry of the free list l, or the
// zero value if l is empty.
func popFree[T any](l *[]T) T {
	var x T
	if n := len(*l); n > 0 {
		x = (*l)[n-1]
		clear((*l)[n-1:])
		*l = (*l)[:n-1]
	}
	return x
}

// reclaim moves pb's bitmaps to the free list and empties pb, keeping its
// arrays.
func (b *Builder) reclaim(pb *pageBits) {
	for i, bm := range pb.bits {
		if poisonRecycled {
			for w := range bm {
				bm[w] = ^uint64(0)
			}
		}
		b.freeBits = append(b.freeBits, bm)
		pb.bits[i] = nil
	}
	pb.pages, pb.bits = pb.pages[:0], pb.bits[:0]
}

// BitmapStore retains the word-access bitmaps of locally created intervals
// until the race-detection pass at the next barrier has consumed them.
// "Our system only discards trace information when it has been checked for
// races" (§6.4). Bitmaps are kept one Footprint per interval — the unit
// Finish deposits and the garbage collector retires — in a slice per
// process ordered by interval index, so a lookup is a binary search and
// retiring a checked epoch is a prefix cut.
type BitmapStore struct {
	byProc [][]storedFootprint // byProc[q]: q's footprints, ascending by index
}

// storedFootprint is one interval's entry in a BitmapStore.
type storedFootprint struct {
	index vc.Index
	fp    *Footprint
}

// Footprint is one interval's word-access bitmaps, per access direction:
// for each of read and write, the sorted page list (the interval's notices)
// and the bitmap of every listed page. It is the unit a BitmapStore holds
// and retires, and the unit a detector that keeps its own records — the Go
// frontend's close-time check — holds beside each record instead.
type Footprint struct{ read, write pageBits }

// Get returns the read and write bitmaps of page p; either may be nil if
// no such access occurred. A nil Footprint has no bitmaps.
func (fp *Footprint) Get(p mem.PageID) (read, write mem.Bitmap) {
	if fp == nil {
		return nil, nil
	}
	return fp.read.get(p), fp.write.get(p)
}

func (fp *Footprint) count() int { return len(fp.read.pages) + len(fp.write.pages) }

// pageBits is one direction of a footprint: a sorted page list and the
// bitmap of each listed page.
type pageBits struct {
	pages []mem.PageID
	bits  []mem.Bitmap
}

func (pb *pageBits) get(p mem.PageID) mem.Bitmap {
	if i, ok := slices.BinarySearch(pb.pages, p); ok {
		return pb.bits[i]
	}
	return nil
}

// set stores bm as page p's bitmap.
func (pb *pageBits) set(p mem.PageID, bm mem.Bitmap) {
	i, found := slices.BinarySearch(pb.pages, p)
	if found {
		pb.bits[i] = bm
		return
	}
	pb.pages = slices.Insert(pb.pages, i, p)
	pb.bits = slices.Insert(pb.bits, i, bm)
}

// NewBitmapStore returns an empty store.
func NewBitmapStore() *BitmapStore { return &BitmapStore{} }

// find returns the position of interval id's footprint in its process's
// slice, or where it would be inserted, and whether it is present.
func (s *BitmapStore) find(id vc.IntervalID) (int, bool) {
	if uint(id.Proc) >= uint(len(s.byProc)) {
		return 0, false
	}
	return slices.BinarySearchFunc(s.byProc[id.Proc], id.Index,
		func(e storedFootprint, x vc.Index) int { return cmp.Compare(e.index, x) })
}

// Get returns the read and write bitmaps of interval id on page p; either
// may be nil if no such access occurred.
func (s *BitmapStore) Get(id vc.IntervalID, p mem.PageID) (read, write mem.Bitmap) {
	if i, ok := s.find(id); ok {
		return s.byProc[id.Proc][i].fp.Get(p)
	}
	return nil, nil
}

// slot returns interval id's entry, inserting one without a footprint if
// the store has none.
func (s *BitmapStore) slot(id vc.IntervalID) *storedFootprint {
	i, ok := s.find(id)
	if !ok {
		s.byProc = growTo(s.byProc, id.Proc)
		s.byProc[id.Proc] = slices.Insert(s.byProc[id.Proc], i, storedFootprint{index: id.Index})
	}
	return &s.byProc[id.Proc][i]
}

// put deposits fp as interval id's footprint, replacing any held one.
func (s *BitmapStore) put(id vc.IntervalID, fp *Footprint) { s.slot(id).fp = fp }

// DiscardUpTo drops all bitmaps belonging to intervals with Index <= hi for
// the given process — called after the barrier's race check completes.
func (s *BitmapStore) DiscardUpTo(proc int, hi vc.Index) {
	if uint(proc) >= uint(len(s.byProc)) {
		return
	}
	fps := s.byProc[proc]
	s.byProc[proc] = slices.Delete(fps, 0, sort.Search(len(fps), func(i int) bool { return fps[i].index > hi }))
}

// Len returns the number of stored (interval,page) bitmaps, read+write.
func (s *BitmapStore) Len() int {
	n := 0
	for _, fps := range s.byProc {
		for _, e := range fps {
			n += e.fp.count()
		}
	}
	return n
}

// StoredBitmap is one (interval, page) bitmap held by the store, with its
// access direction — the enumeration form used by checkpointing.
type StoredBitmap struct {
	ID    vc.IntervalID
	Page  mem.PageID
	Write bool
	Bits  mem.Bitmap
}

// Entries returns every stored bitmap in a deterministic order (reads then
// writes, each sorted by (proc, index, page)) so that serialized
// checkpoints are byte-stable.
func (s *BitmapStore) Entries() []StoredBitmap {
	out := make([]StoredBitmap, 0, s.Len())
	for _, write := range []bool{false, true} {
		for q, fps := range s.byProc {
			for _, e := range fps {
				side := &e.fp.read
				if write {
					side = &e.fp.write
				}
				id := vc.IntervalID{Proc: q, Index: e.index}
				for i, p := range side.pages {
					out = append(out, StoredBitmap{ID: id, Page: p, Write: write, Bits: side.bits[i]})
				}
			}
		}
	}
	return out
}

// CompareIDs orders interval IDs by (proc, index).
func CompareIDs(a, b vc.IntervalID) int {
	if c := cmp.Compare(a.Proc, b.Proc); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// Put inserts one bitmap (the checkpoint-restore inverse of Entries),
// replacing any bitmap already stored for that interval, page and side.
func (s *BitmapStore) Put(id vc.IntervalID, p mem.PageID, write bool, bm mem.Bitmap) {
	e := s.slot(id)
	if e.fp == nil {
		e.fp = &Footprint{}
	}
	side := &e.fp.read
	if write {
		side = &e.fp.write
	}
	side.set(p, bm)
}

// growTo returns s extended with empty slots so that index q is valid.
func growTo[T any](s [][]T, q int) [][]T {
	if q < len(s) {
		return s
	}
	return append(s, make([][]T, q+1-len(s))...)
}

// Log is a process's table of known interval records — its own and those
// received via synchronization messages — used to compute the consistency
// deltas appended to lock grants and barrier messages. Records are kept in
// a slice per process ordered by interval index: a version-vector entry
// v[q] = i covers exactly a prefix of q's slice, so a delta is one suffix
// per process and garbage collection one prefix cut per process.
type Log struct {
	byProc [][]*Record // byProc[q]: q's records, ascending by index
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// above returns the position of the first record in recs with an index
// above x — len(recs) if there is none. Searching for "above x" rather than
// "at least x+1" keeps an index of math.MaxUint32 from wrapping.
func above(recs []*Record, x vc.Index) int {
	lo, hi := 0, len(recs) // a closure-free sort.Search: this is the delta's hot loop
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if recs[m].ID.Index <= x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Add inserts r (no-op if already present). In the common, in-order case
// the insertion is an append.
func (l *Log) Add(r *Record) {
	l.byProc = growTo(l.byProc, r.ID.Proc)
	recs := l.byProc[r.ID.Proc]
	if i := above(recs, r.ID.Index); i == 0 || recs[i-1].ID.Index != r.ID.Index {
		l.byProc[r.ID.Proc] = slices.Insert(recs, i, r)
	}
}

// Get returns the record for id, or nil.
func (l *Log) Get(id vc.IntervalID) *Record {
	if uint(id.Proc) >= uint(len(l.byProc)) {
		return nil
	}
	recs := l.byProc[id.Proc]
	if i := above(recs, id.Index); i > 0 && recs[i-1].ID.Index == id.Index {
		return recs[i-1]
	}
	return nil
}

// Len returns the number of records held.
func (l *Log) Len() int {
	n := 0
	for _, recs := range l.byProc {
		n += len(recs)
	}
	return n
}

// Records returns every held record sorted by (proc, index) — the
// deterministic enumeration checkpointing serializes.
func (l *Log) Records() []*Record {
	out := make([]*Record, 0, l.Len())
	for _, recs := range l.byProc {
		out = append(out, recs...)
	}
	return out
}

// Delta returns every known record not yet seen by a process whose version
// vector is theirs — the "structures describing intervals seen by the
// releaser but not the acquirer" that LRC piggybacks on synchronization
// messages. Records are returned in (proc, index) order so transfer and
// application are deterministic.
func (l *Log) Delta(theirs vc.VC) []*Record { return l.DeltaCapped(theirs, nil) }

// DeltaCapped is Delta restricted to records within the knowledge horizon
// cap — used for lock grants, which must carry what the releaser had seen
// *at the release*, not what the granter happens to know by grant time
// (knowledge gained after the release is not ordered before the acquire,
// and leaking it would create false happens-before-1 edges that hide
// races). A nil cap means no restriction. The result is, per process q,
// the run of q's records above theirs[q] and at most cap[q]; it is sized
// before it is filled, so the result slice is the only allocation.
func (l *Log) DeltaCapped(theirs, cap vc.VC) []*Record {
	run := func(q int) []*Record {
		recs := l.byProc[q]
		if cap != nil {
			recs = recs[:above(recs, cap[q])]
		}
		return recs[above(recs, theirs[q]):]
	}
	n := 0
	for q := range l.byProc {
		n += len(run(q))
	}
	if n == 0 {
		return nil
	}
	out := make([]*Record, 0, n)
	for q := range l.byProc {
		out = append(out, run(q)...)
	}
	return out
}

// PruneBefore discards records dominated by horizon: after a barrier every
// process has seen every interval of the finished epoch, so records at or
// below the horizon can never appear in a future delta. This is the
// consistency-information garbage collection CVM runs at barriers.
func (l *Log) PruneBefore(horizon vc.VC) {
	for q, recs := range l.byProc {
		l.byProc[q] = slices.Delete(recs, 0, above(recs, horizon[q]))
	}
}

package gofront

import (
	"sync"

	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/race"
	"lrcrace/internal/telemetry"
	"lrcrace/internal/vc"
)

// vcClock is the version-vector type the frontend threads through sync
// objects as release clocks.
type vcClock = vc.VC

// gcEvery is how many interval closes pass between knowledge-horizon GC
// sweeps over the retained record history.
const gcEvery = 64

// detector is the gofront incarnation of the paper's detection procedure.
// Instead of batching the concurrency check at barriers, it checks each
// interval as it closes against every retained record that is concurrent
// with it: the version-vector comparison is the same constant-time check,
// the page-notice intersection the same race.AppendPair the barrier's
// partial build calls, and the word-bitmap comparison the same kernel the
// DSM barrier master runs (race.AppendShard); of the races it finds, it
// keeps the first on each address and write-write kind. Records ordered
// before every live goroutine's current knowledge (the pointwise-minimum
// horizon) can never be concurrent with a future interval and are
// retired, bounding the history — the Go-frontend analogue of "our system
// only discards trace information when it has been checked for races"
// (§6.4).
//
// The detector owns its history outright: each retained record carries its
// own interval.Footprint, so the check reads a pair's bitmaps straight off
// the two records (no interval-keyed store to hash into), and the horizon
// GC hands a record and its bitmaps back to their goroutine's builder in
// one step, for the builder's next closes to reuse.
type detector struct {
	p       *Program
	n       int
	enabled bool

	started []bool
	idx     []vc.Index
	vcs     []vc.VC
	rel     []vc.VC // per goroutine: the release clock of its last releasing close
	bld     []*interval.Builder
	records []retained       // in close order
	reports []race.Report    // one per (address, write-write), in first-found order
	seen    map[raceKey]bool // the keys of reports
	clocks  []vc.VC          // retired records' clocks, for later records to reuse
	closes  int

	// Per-close scratch, reused so a close that reports nothing allocates
	// nothing per retained record.
	entryScratch []race.CheckEntry
	found        []race.Report
	pair         pairSource
	horizon      vc.VC
}

// raceKey is what a kept report stands for: every race found on its
// address with the same write-write kind (race.DedupByAddr's key).
type raceKey struct {
	addr mem.Addr
	ww   bool
}

// retained is one closed interval still held for checking: the record, its
// word bitmaps, and the page signatures race.AppendPair filters on.
type retained struct {
	rec  *interval.Record
	fp   *interval.Footprint
	w, r uint64 // bit p mod 64 set for every written / read page p
}

// pageSig folds a notice list into the signature race.AppendPair expects.
func pageSig(pages []mem.PageID) uint64 {
	var s uint64
	for _, p := range pages {
		s |= 1 << (uint32(p) % 64)
	}
	return s
}

// pairSource is the race.BitmapSource of one concurrent pair: the check
// entries handed to race.AppendShard name only its two intervals.
type pairSource struct{ a, b *retained }

// Bitmaps implements race.BitmapSource.
func (ps *pairSource) Bitmaps(id vc.IntervalID, p mem.PageID) (read, write mem.Bitmap) {
	if id == ps.a.rec.ID {
		return ps.a.fp.Get(p)
	}
	return ps.b.fp.Get(p)
}

func newDetector(p *Program) *detector {
	n := p.cfg.MaxGs
	return &detector{
		p:       p,
		n:       n,
		enabled: p.cfg.Detect,
		seen:    make(map[raceKey]bool),
		started: make([]bool, n),
		idx:     make([]vc.Index, n),
		vcs:     make([]vc.VC, n),
		rel:     make([]vc.VC, n),
		bld:     make([]*interval.Builder, n),
		horizon: vc.New(n),
	}
}

// startG opens goroutine g's first interval with the spawning parent's
// release clock (nil for the root). A goroutine Run starts takes the spares
// of a finished run's builder (interval.Builder.Restock); one started
// outside Run, by a test driving the detector directly, allocates as in
// the first program of a process.
func (d *detector) startG(g int, parentRel vc.VC) {
	d.started[g] = true
	d.idx[g] = 1
	d.vcs[g] = vc.New(d.n)
	d.rel[g] = vc.New(d.n)
	if parentRel != nil {
		d.vcs[g].Merge(parentRel)
	}
	d.vcs[g][g] = 1
	if d.enabled {
		d.bld[g] = interval.NewBuilder(d.p.layout)
		if d.p.ran {
			d.bld[g].Restock()
		}
	}
}

func (d *detector) noteRead(g int, a mem.Addr) {
	if d.enabled {
		d.bld[g].NoteRead(a)
	}
}

func (d *detector) noteWrite(g int, a mem.Addr) {
	if d.enabled {
		d.bld[g].NoteWrite(a)
	}
}

// closeInterval ends goroutine g's current interval and opens the next.
// An op that releases gets back a release clock: a snapshot of g's
// knowledge up to and including the closed interval — but never the newly
// opened one, so joining it elsewhere cannot falsely order accesses that
// follow this sync op. An op that only acquires gets nil.
//
// The release clock is g's own buffer (d.rel[g]), written in place. It
// stays valid until g's next close: for as long as g is blocked, and for
// good once g has exited, so a blocked goroutine's pending clock and an
// exited one's final clock borrow it. A sync object that keeps an edge
// past the op copies it into a clock it owns. If the interval recorded
// accesses, it is materialized with a clock of its own, taken from the
// clocks of retired records, and immediately checked against the retained
// concurrent history. So a close in steady state allocates nothing.
func (d *detector) closeInterval(g int, release bool) vc.VC {
	if d.enabled && !d.bld[g].Empty() {
		id := vc.IntervalID{Proc: g, Index: d.idx[g]}
		r, fp := d.bld[g].FinishFootprint(id, reuse(&d.clocks, d.vcs[g]), 0)
		d.p.stats.Intervals++
		d.p.scope.Emit(g, telemetry.KIntervalClose, d.p.vt,
			int64(d.idx[g]), int64(len(r.WriteNotices)), int64(len(r.ReadNotices)))
		d.records = append(d.records, retained{
			rec: r, fp: fp, w: pageSig(r.WriteNotices), r: pageSig(r.ReadNotices),
		})
		d.check()
	}
	var rel vc.VC
	if release {
		rel = d.rel[g]
		copy(rel, d.vcs[g])
	}
	d.idx[g]++
	d.vcs[g][g] = d.idx[g]
	d.closes++
	if d.enabled && d.closes%gcEvery == 0 {
		d.gc()
	}
	return rel
}

// reuse returns a copy of v written into the last clock of the free list
// free, which it pops, or into a new clock if the list is empty.
func reuse(free *[]vc.VC, v vc.VC) vc.VC {
	n := len(*free)
	if n == 0 {
		return v.Copy()
	}
	c := (*free)[n-1]
	*free = (*free)[:n-1]
	copy(c, v)
	return c
}

// join merges a release clock into goroutine g's current knowledge — the
// acquire half of every happens-before edge.
func (d *detector) join(g int, rel vc.VC) {
	if rel != nil {
		d.vcs[g].Merge(rel)
	}
}

// check compares the newly closed record — the last retained one — against
// every earlier retained record of another goroutine that is concurrent
// with it: the barrier's page-overlap step (race.AppendPair), then the
// word-bitmap comparison kernel, once per concurrent pair.
func (d *detector) check() {
	last := len(d.records) - 1
	r := &d.records[last]
	pairs, bitmaps, found := 0, 0, 0
	for i := range d.records[:last] {
		s := &d.records[i]
		if s.rec.ID.Proc == r.rec.ID.Proc {
			continue
		}
		pairs++
		if !vc.Concurrent(s.rec.ID, s.rec.VC, r.rec.ID, r.rec.VC) {
			continue
		}
		d.p.stats.ConcurrentPairs++
		entries := race.AppendPair(d.entryScratch[:0], s.rec, r.rec, s.w, s.r, r.w, r.r)
		d.entryScratch = entries
		if len(entries) == 0 {
			continue
		}
		d.pair = pairSource{a: s, b: r}
		var st race.ShardStats
		d.found, st = race.AppendShard(d.found[:0], d.p.layout, entries, &d.pair, 0)
		for _, rep := range d.found {
			if k := (raceKey{rep.Addr, rep.WriteWrite()}); !d.seen[k] {
				d.seen[k] = true
				d.reports = append(d.reports, rep)
			}
		}
		d.p.stats.CheckEntries += len(entries)
		d.p.stats.BitmapsCompared += st.BitmapsCompared
		d.p.stats.WordOverlaps += st.WordOverlaps
		bitmaps += st.BitmapsCompared
		found += len(d.found)
	}
	d.p.stats.PairsExamined += pairs
	d.p.scope.Emit(r.rec.ID.Proc, telemetry.KGoCheck, d.p.vt, int64(pairs), int64(bitmaps), int64(found))
}

// gc retires records — each with its bitmaps — at or below the knowledge
// horizon: the pointwise minimum of every live goroutine's version vector.
// Such a record precedes every interval any live goroutine can still open
// (vectors only grow), so it can never again appear in a concurrent pair,
// and its goroutine's builder takes it back (interval.Builder.Recycle) to
// reuse for a later close. The record's clock is its own, so the detector
// keeps it for a later record. Reports name intervals by ID, never by
// record, so nothing reads a retired record again.
//
// A blocked goroutine contributes not its stale current clock but that
// clock merged with its resume lower bound (futureLB): the clock it is
// guaranteed to join before it runs again — the join target's current
// clock, the lock holder's, the WaitGroup's accumulated Dones. Without
// this, a root goroutine parked in Join for the whole run would pin the
// horizon at its spawn-time knowledge and nothing could ever be retired.
func (d *detector) gc() {
	horizon, live := d.horizon, false
	for _, g := range d.p.gs {
		if g.state == gDone || !d.started[g.id] {
			continue
		}
		var lb vc.VC
		if g.state == gBlocked && g.futureLB != nil {
			lb = g.futureLB.resumeLB()
		}
		for i, x := range d.vcs[g.id] {
			if lb != nil {
				x = max(x, lb[i])
			}
			if !live || x < horizon[i] {
				horizon[i] = x
			}
		}
		live = true
	}
	if !live {
		return
	}
	// A goroutine slot that may still be spawned into has seen nothing
	// yet from the horizon's perspective only via its future parent's
	// clock — but the spawn edge will carry the parent's knowledge, which
	// is already bounded below by the horizon, so unspawned slots need no
	// adjustment.
	kept := d.records[:0]
	for _, r := range d.records {
		if r.rec.ID.Index > horizon[r.rec.ID.Proc] {
			kept = append(kept, r)
		} else {
			d.p.stats.RecordsGCed++
			d.clocks = append(d.clocks, r.rec.VC)
			d.bld[r.rec.ID.Proc].Recycle(r.rec, r.fp)
		}
	}
	clear(d.records[len(kept):])
	d.records = kept
}

// detectorSpares is what a finished run's detector leaves for a later run
// of the same clock width: its free record clocks, and its record list,
// emptied.
type detectorSpares struct {
	clocks  []vc.VC
	records []retained
}

// sparesByWidth maps a clock width (Config.MaxGs) to a *sync.Pool of
// *detectorSpares.
var sparesByWidth sync.Map

func sparesOf(n int) *sync.Pool {
	pool, ok := sparesByWidth.Load(n)
	if !ok {
		pool, _ = sparesByWidth.LoadOrStore(n, new(sync.Pool))
	}
	return pool.(*sync.Pool)
}

// restock takes the spares a finished run of the same width left, if any,
// as Run starts: the run's closes reuse those clocks before they allocate.
func (d *detector) restock() {
	if !d.enabled {
		return
	}
	if s, ok := sparesOf(d.n).Get().(*detectorSpares); ok {
		d.clocks, d.records = s.clocks, s.records
	}
}

// release hands back what the finished run's detector holds for later
// runs: every goroutine's builder (interval.Builder.Release), and every
// record still retained, with its clock and footprint. Nothing reads a
// record once the Result is taken, so its clock joins the free clocks and
// its goroutine's builder takes the rest back first.
func (d *detector) release() {
	if !d.p.cfg.Detect {
		return
	}
	for _, r := range d.records {
		d.clocks = append(d.clocks, r.rec.VC)
		d.bld[r.rec.ID.Proc].Recycle(r.rec, r.fp)
	}
	clear(d.records)
	sparesOf(d.n).Put(&detectorSpares{clocks: d.clocks, records: d.records[:0]})
	d.clocks, d.records = nil, nil
	for g, b := range d.bld {
		if b != nil {
			b.Release()
			d.bld[g] = nil
		}
	}
}

// finishAll closes the current interval of every goroutine that has not
// exited (blocked or abandoned by a deadlock), so accesses up to the block
// point still enter the check.
func (d *detector) finishAll() {
	for _, g := range d.p.gs {
		if g.state != gDone && d.started[g.id] {
			d.closeInterval(g.id, false)
		}
	}
}

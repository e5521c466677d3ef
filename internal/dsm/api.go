package dsm

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"

	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/telemetry"
	"lrcrace/internal/vc"
)

// Read returns the shared word at a, faulting in the page if the local copy
// is invalid. When detection is on, the access is instrumented: the
// analysis routine is charged (procedure call + access check) and the read
// bit for the word is set in the current interval's bitmap.
func (p *Proc) Read(a mem.Addr) uint64 {
	m := &p.model
	p.vnow += m.MemAccess
	p.st.SharedReads++
	if p.detecting {
		p.vnow += m.ProcCall + m.AccessCheck
		p.st.TProcCall += m.ProcCall
		p.st.TAccessCheck += m.AccessCheck
		p.builder.NoteRead(a)
	}
	pg := p.seg.Page(a)
	if p.state[pg] == pageInvalid {
		p.fetchPage(pg, false)
	}
	v := p.seg.Word(a)
	if tr := p.tracer; tr != nil {
		tr.Read(p.id, a)
	}
	if p.crashable && p.shouldCrash(siteAccess) {
		p.crashNow()
	}
	return v
}

// Write stores v to the shared word at a, obtaining write access first
// (ownership under single-writer; a twin under multi-writer). The first
// write to a page in each interval takes a protection fault, which is how
// the base DSM learns write notices without instrumentation.
func (p *Proc) Write(a mem.Addr, v uint64) {
	m := &p.model
	p.vnow += m.MemAccess
	p.st.SharedWrites++
	if p.detecting {
		p.vnow += m.ProcCall + m.AccessCheck
		p.st.TProcCall += m.ProcCall
		p.st.TAccessCheck += m.AccessCheck
		if !p.writesFromDiffs {
			p.builder.NoteWrite(a)
		}
	}
	pg := p.seg.Page(a)
	switch p.proto {
	case SingleWriter, EagerRC:
		if !p.owned[pg] {
			p.fetchPage(pg, true)
		} else if !p.writtenPages.has[pg] {
			// Local protection fault: creates this interval's write notice.
			p.vnow += m.PageFault
			p.st.WriteFaults++
			p.tel.Emit(p.id, telemetry.KPageFault, p.vnow, int64(pg), 1, 0)
			p.seg.PageBytes(pg) // a never-written page's first frame comes from the pool
		}
		p.writtenPages.add(pg)
	case MultiWriter:
		if p.state[pg] == pageInvalid {
			p.fetchPage(pg, true)
		}
		if p.state[pg] == pageReadOnly {
			p.vnow += m.PageFault
			p.st.WriteFaults++
			p.tel.Emit(p.id, telemetry.KPageFault, p.vnow, int64(pg), 1, 0)
			f := p.seg.PageBytes(pg) // a never-written page's first frame comes from the pool
			if p.home(pg) != p.id || p.writesFromDiffs {
				tw := mem.GetFrame(p.seg.PageSize)
				copy(tw, f)
				p.twins[pg] = tw
				p.twinned.add(pg)
			}
			p.state[pg] = pageWritable
		}
		if !p.writesFromDiffs {
			p.writtenPages.add(pg)
		}
	}
	p.seg.SetWord(a, v)
	if tr := p.tracer; tr != nil {
		tr.Write(p.id, a)
	}
	if p.proto != MultiWriter && len(p.pendFwd[pg]) > 0 {
		p.drainPendingFwds(pg)
	}
	if p.crashable && p.shouldCrash(siteAccess) {
		p.crashNow()
	}
}

// ReadF64 reads the shared word at a as a float64.
func (p *Proc) ReadF64(a mem.Addr) float64 { return math.Float64frombits(p.Read(a)) }

// WriteF64 stores a float64 to the shared word at a.
func (p *Proc) WriteF64(a mem.Addr, v float64) { p.Write(a, math.Float64bits(v)) }

// ReadI64 reads the shared word at a as an int64.
func (p *Proc) ReadI64(a mem.Addr) int64 { return int64(p.Read(a)) }

// WriteI64 stores an int64 to the shared word at a.
func (p *Proc) WriteI64(a mem.Addr, v int64) { p.Write(a, uint64(v)) }

// Compute charges ops units of private computation to the virtual clock.
func (p *Proc) Compute(ops int64) {
	p.vnow += ops * p.model.ComputeOp
	p.st.ComputeOps += ops
}

// PrivateAccess models n loads/stores that ATOM could not statically prove
// private, so they call the analysis routine at runtime only to fail the
// shared-segment bounds check. These dominate the dynamic instrumentation
// cost in the paper's applications ("the majority of run-time calls to our
// analysis routines are for private, not shared, data").
func (p *Proc) PrivateAccess(n int64) {
	m := &p.model
	p.vnow += n * m.MemAccess
	p.st.PrivateAccesses += n
	if p.detecting {
		p.vnow += n * (m.ProcCall + m.AccessCheck)
		p.st.TProcCall += n * m.ProcCall
		p.st.TAccessCheck += n * m.AccessCheck
	}
}

// --- page faults ---

// fetchPage services a fault on pg through its home. A write fault
// under single-writer (or ERC) asks for ownership and the current contents,
// which the home's directory routes to the current owner; every other fault
// fetches a read-only copy — under multi-writer the home's own, which is
// always current.
func (p *Proc) fetchPage(pg mem.PageID, write bool) {
	p.vnow += p.model.PageFault
	wr := int64(0)
	if write {
		p.st.WriteFaults++
		wr = 1
	} else {
		p.st.ReadFaults++
	}
	p.tel.Emit(p.id, telemetry.KPageFault, p.vnow, int64(pg), wr, 0)
	own := write && p.proto != MultiWriter
	if own {
		p.expecting[pg] = true
	} else {
		if p.proto == MultiWriter && p.home(pg) == p.id {
			p.protocolBug("home page %d invalid", pg)
		}
		p.fetching[pg] = true
	}
	v := p.vnow
	p.send(p.home(pg), &msg.PageReq{Page: pg, Write: own}, v)
	rep, d := await[*msg.PageReply](p, "page fetch")
	if rep.Page != pg || rep.Ownership != own {
		p.protocolBug("fault on page %d (ownership %v) answered with page %d (ownership %v)",
			pg, own, rep.Page, rep.Ownership)
	}
	if len(rep.Data) != p.seg.PageSize {
		p.protocolBug("fault on page %d answered with %d bytes, page size is %d",
			pg, len(rep.Data), p.seg.PageSize)
	}
	// The sender handed Data over as a frame of its own (Transport): it
	// becomes our frame, and the frame it replaces goes back to the pool.
	p.seg.AdoptPage(pg, rep.Data)
	p.markDirty(pg)
	p.tel.Emit(p.id, telemetry.KPageFetch, p.vnow, int64(pg), int64(d.From), p.vnow-v)
	if own {
		p.owned[pg] = true
		p.expecting[pg] = false
		p.state[pg] = pageWritable
		return
	}
	p.fetching[pg] = false
	p.state[pg] = pageReadOnly
	if p.fetchInv[pg] {
		// Invalidated mid-fetch: serve this (legally stale) read, but do
		// not keep the copy.
		p.fetchInv[pg] = false
		p.state[pg] = pageInvalid
	}
}

// eagerRelease performs an ERC release: broadcast invalidations for
// every page written since the last release to all other processes and wait
// for their acknowledgments. This is the eager traffic — O(P) messages per
// release, paid whether or not anyone will ever read the data — that lazy
// release consistency defers and piggybacks instead.
func (p *Proc) eagerRelease() {
	if len(p.pendingInval.pages) == 0 {
		return
	}
	pages := p.pendingInval.sorted()
	p.pendingInval.clear()
	v := p.vnow
	acks := 0
	for q := 0; q < p.n; q++ {
		if q == p.id {
			continue
		}
		p.send(q, &msg.Inval{Pages: pages}, v)
		acks++
	}
	for i := 0; i < acks; i++ {
		await[*msg.InvalAck](p, "inval ack")
	}
}

// flushDiffs computes and flushes the diffs of all twinned pages to
// their homes, in page order, waiting for acknowledgments, and
// write-protects written pages again so the next interval re-faults. Under
// WritesFromDiffs the diffs also provide the write bitmaps and write
// notices (§6.5): a word overwritten with its existing value produces no
// diff entry and therefore no notice — the paper's "slightly weaker
// correctness guarantee".
func (p *Proc) flushDiffs() {
	if len(p.twinned.pages) == 0 && len(p.writtenPages.pages) == 0 {
		return
	}
	acks := 0
	v := p.vnow
	slices.Sort(p.twinned.pages)
	for _, pg := range p.twinned.pages {
		twin := p.twins[pg]
		// One scratch buffer serves every page; a flush sends a copy, since
		// a sent message is frozen.
		entries := diffPage(p.diffBuf[:0], p.seg.PageView(pg), twin)
		p.diffBuf = entries
		p.st.DiffsFlushed++
		p.st.DiffWords += int64(len(entries))
		p.tel.Emit(p.id, telemetry.KDiffFlush, v, int64(pg), int64(len(entries)), 0)
		if p.writesFromDiffs && len(entries) > 0 {
			base := p.seg.PageBase(pg)
			for _, e := range entries {
				addr := base + mem.Addr(int(e.Word)*mem.WordSize)
				p.builder.NoteWrite(addr)
			}
			p.writtenPages.add(pg)
		}
		if p.home(pg) != p.id && len(entries) > 0 {
			p.send(p.home(pg), &msg.DiffFlush{Page: pg, Entries: slices.Clone(entries)}, v)
			acks++
		}
		mem.PutFrame(twin) // diffed: the entries hold what the flush needs
		p.twins[pg] = nil
		p.state[pg] = pageReadOnly
	}
	p.twinned.clear()
	for _, pg := range p.writtenPages.pages {
		if p.state[pg] == pageWritable {
			p.state[pg] = pageReadOnly
		}
	}
	for i := 0; i < acks; i++ {
		await[*msg.DiffAck](p, "diff ack")
	}
}

// diffBlock is the stride diffPage compares whole before it looks at words.
const diffBlock = 64

// diffPage appends the words at which page and twin differ to out. A
// twinned page usually differs in a handful of words, so it compares
// diffBlock bytes at a time and scans words only inside a block that
// differs.
func diffPage(out []msg.DiffEntry, page, twin []byte) []msg.DiffEntry {
	for start := 0; start < len(page); start += diffBlock {
		end := min(start+diffBlock, len(page))
		if bytes.Equal(page[start:end], twin[start:end]) {
			continue
		}
		for off := start; off < end; off += mem.WordSize {
			if a := binary.LittleEndian.Uint64(page[off:]); a != binary.LittleEndian.Uint64(twin[off:]) {
				out = append(out, msg.DiffEntry{Word: uint32(off / mem.WordSize), Val: a})
			}
		}
	}
	return out
}

// --- locks ---

// Lock acquires distributed lock id. The request goes to the lock's static
// manager (id mod N), which forwards it to the last holder; the grant
// returns directly from the holder, carrying the interval records the
// holder has seen but this process has not. Applying them invalidates
// pages named by their write notices — the lazy part of LRC.
func (p *Proc) Lock(id int) {
	p.yield()
	ls := p.lock(id)
	if ls.holding {
		p.protocolBug("recursive Lock(%d)", id)
	}
	ls.awaiting = true
	p.st.LockAcquires++
	p.tel.Emit(p.id, telemetry.KLockRequest, p.vnow, int64(id), 0, 0)
	v := p.vnow
	p.send(id%p.n, &msg.AcquireReq{Lock: int32(id), VC: vcToWire(p.vcur)}, v)
	grant, d := await[*msg.AcquireGrant](p, "lock grant")
	if int(grant.Lock) != id {
		p.protocolBug("Lock(%d) answered with a grant of lock %d", id, grant.Lock)
	}
	p.tel.Emit(p.id, telemetry.KLockAcquired, p.vnow, int64(id), int64(d.From), p.vnow-v)
	// An acquire begins a new interval.
	p.closeInterval()
	p.applyIntervals(grant.Intervals)
	p.startInterval()
	if tr := p.tracer; tr != nil {
		tr.Acquire(p.id, id)
	}
	ls.awaiting = false
	ls.holding = true
	// Receiving a grant means every forward targeting our previous tenure
	// has been served (the chain passed through them to reach us); any
	// leftover obligation was consumed by the manager's self-grant path.
	ls.releasedUngranted = false
	if p.shouldCrash(siteLock) {
		p.crashNow()
	}
}

// Unlock releases lock id: the critical section's interval is closed (and,
// under multi-writer, its diffs flushed) so that a grant to the next
// acquirer carries complete consistency information. If a forwarded
// request is already queued, the grant is sent immediately.
func (p *Proc) Unlock(id int) {
	p.yield()
	ls := p.lock(id)
	if !ls.holding {
		p.protocolBug("Unlock(%d) while not holding", id)
	}
	if tr := p.tracer; tr != nil {
		tr.Release(p.id, id)
	}
	p.tel.Emit(p.id, telemetry.KLockRelease, p.vnow, int64(id), 0, 0)
	// A release begins a new interval. Snapshot the release-time version
	// vector first: it caps what any grant for this tenure may carry.
	p.closeInterval()
	if p.proto == EagerRC {
		// The ERC release may not complete (and the lock may not pass on)
		// until every process has applied the invalidations.
		p.eagerRelease()
	}
	ls.relVC = p.vcur.Copy()
	p.startInterval()
	ls.holding = false
	ls.lastRelV = p.vnow
	if len(ls.pending) > 0 {
		if len(ls.pending) > 1 {
			p.protocolBug("lock %d has %d pending grants", id, len(ls.pending))
		}
		pg := ls.pending[0]
		ls.pending = nil
		v := p.vnow
		if pg.arrV > v {
			v = pg.arrV
		}
		p.grant(id, pg.requester, pg.theirVC, ls.relVC, v)
	} else {
		ls.releasedUngranted = true
	}
}

// grant sends an AcquireGrant for lock id to requester, with the
// interval delta computed against the requester's version vector, capped to
// the granter's knowledge at the time of the release being matched.
func (p *Proc) grant(id, requester int, theirs, relVC vc.VC, vtime int64) {
	var delta []*interval.Record
	if p.proto != EagerRC {
		// Under ERC nothing travels on acquires: invalidations already
		// went out eagerly at the release.
		delta = p.log.DeltaCapped(theirs, relVC)
	}
	p.tel.Emit(p.id, telemetry.KLockGrant, vtime, int64(id), int64(requester), int64(len(delta)))
	g := &msg.AcquireGrant{Lock: int32(id), Intervals: delta}
	bytes := p.send(requester, g, vtime)
	p.recordSyncSend(delta, bytes)
}

// --- barrier ---

// Barrier performs global synchronization through the barrier tree rooted
// at process 0 (tree.go) and, when detection is on, runs the race-detection
// pass: arrival messages carry the epoch's interval records (with read and
// write notices); the release carries everyone's records plus the check
// list; a second round (shard.go) returns word bitmaps for the check list
// to its owners, who compare them; the root reports races with the final
// done message.
func (p *Proc) Barrier() {
	p.yield()
	p.st.Barriers++
	// Two interval structures per barrier, as in CVM: the computation
	// interval and the (empty) arrival interval.
	p.closeInterval()
	p.startInterval()
	p.closeInterval()
	if tr := p.tracer; tr != nil {
		tr.BarrierArrive(p.id, p.epoch)
	}

	if p.proto == EagerRC {
		// Barrier arrival is a release: push the invalidations now; the
		// arrive message then carries no consistency information.
		p.eagerRelease()
	}
	arr := &msg.BarrierArrive{
		Epoch: p.epoch,
		VC:    vcToWire(p.vcur),
	}
	if p.proto != EagerRC {
		arr.Intervals = p.epochRecords
	}
	recs := arr.Intervals
	p.epochRecords = nil
	lastClosed := p.curIndex
	v := p.vnow
	p.tel.Emit(p.id, telemetry.KBarrierArrive, v, int64(p.epoch), 0, 0)

	// The arrival goes to the tree parent; interior nodes (under the star,
	// the root alone) self-address it so their own contribution enters the
	// reduction through the same handler.
	dest := p.id
	if t := p.tree; t.expect == 0 {
		dest = treeParent(p.id, t.arity)
	}
	p.recordSyncSend(recs, p.send(dest, arr, v))
	rel, _ := await[*msg.BarrierRelease](p, "barrier release")
	if rel.Epoch != p.epoch {
		p.protocolBug("barrier release for epoch %d at epoch %d", rel.Epoch, p.epoch)
	}
	p.applyIntervals(rel.Intervals)
	gvc := vcFromWire(rel.GlobalVC)
	p.vcur.Merge(gvc)
	if tr := p.tracer; tr != nil {
		tr.BarrierDepart(p.id, rel.Epoch)
	}

	if rel.NeedBitmaps {
		if p.shouldCrash(siteBitmap) {
			// Die between receiving the release and sending our bitmap
			// reply, wedging the master mid-comparison.
			p.crashNow()
		}
		p.sendBitmaps(rel)
		// BarrierDone ends the round; its reports are the detector's, which
		// keeps them at the root.
		await[*msg.BarrierDone](p, "barrier bitmap round")
	}

	// The epoch has been checked for races: its trace information may now
	// be discarded, and interval records below the global horizon garbage
	// collected (every process has seen them).
	p.store.DiscardUpTo(p.id, lastClosed)
	p.log.PruneBefore(gvc)
	p.tel.Emit(p.id, telemetry.KBarrierDepart, p.vnow, int64(p.epoch), 0, p.vnow-v)
	p.epoch++
	p.startInterval()
	if p.sys.ckpts != nil {
		// The barrier departure is the recovery line: serialize this
		// process's recovery state as of the start of the new epoch. The
		// scheduler ran this coroutine the moment the departure trigger was
		// handled, so no message ordered after it has been handled here yet.
		p.checkpoint()
	}
}

// Consolidate runs a global metadata consolidation (§6.3). In CVM this
// mechanism exists to garbage-collect consistency information in
// long-running, barrier-free programs; here, as there, it is realized as a
// global synchronization of the system's metadata — every process must call
// it, like a barrier — at which the race-detection pass also runs and
// interval logs and bitmaps are pruned. Note the precision tradeoff this
// implies: accesses before the consolidation become ordered with respect to
// accesses after it, so a race spanning the consolidation point is not
// reported (races within each consolidated batch are).
func (p *Proc) Consolidate() { p.Barrier() }

// sendBitmaps returns this process's bitmaps for every check-list
// entry naming one of its intervals — the second barrier round. Each
// entry's bitmaps go to its owner (process 0 when the release carries no
// ShardOwner assignment), and every distinct owner receives exactly one —
// possibly empty — reply, so owners can close their collection round by
// count alone. A reply's entries are sorted by (index, page), the order its
// owner looks them up in; the bitmaps are the stored ones, which no one
// writes to once their interval has closed.
func (p *Proc) sendBitmaps(rel *msg.BarrierRelease) {
	b := &p.bitmaps
	if b.replies == nil {
		b.replies = make([]*msg.BitmapReply, p.n)
		b.sent = make([][]vc.Index, p.sys.layout.NumPages)
	}
	// A sent message is frozen, so every round builds its replies afresh.
	replyTo := func(to int) *msg.BitmapReply {
		if b.replies[to] == nil {
			b.replies[to] = &msg.BitmapReply{Epoch: rel.Epoch}
			b.order = append(b.order, to)
		}
		return b.replies[to]
	}
	if len(rel.ShardOwner) > 0 {
		for _, o := range rel.ShardOwner {
			replyTo(int(o))
		}
	} else {
		replyTo(0)
	}
	// A page has exactly one shard owner, so one dedup suffices even with
	// several replies in flight: sent[pg] lists the intervals whose
	// bitmaps of page pg are already in a reply (a handful per page).
	addSide := func(to int, id vc.IntervalID, page mem.PageID) {
		if id.Proc != p.id || slices.Contains(b.sent[page], id.Index) {
			return
		}
		if len(b.sent[page]) == 0 {
			b.pages = append(b.pages, page)
		}
		b.sent[page] = append(b.sent[page], id.Index)
		rd, wr := p.store.Get(id, page)
		if rd == nil && wr == nil {
			return
		}
		if rd != nil {
			p.st.BitmapsSent++
		}
		if wr != nil {
			p.st.BitmapsSent++
		}
		reply := replyTo(to)
		reply.Entries = append(reply.Entries, msg.BitmapEntry{
			Proc:  int32(id.Proc),
			Index: uint32(id.Index),
			Page:  page,
			Read:  rd,
			Write: wr,
		})
	}
	for i, c := range rel.Check {
		to := 0
		if len(rel.ShardOwner) > 0 {
			to = int(rel.ShardOwner[i])
		}
		addSide(to, c.A, c.Page)
		addSide(to, c.B, c.Page)
	}
	for _, to := range b.order {
		r := b.replies[to]
		slices.SortFunc(r.Entries, compareEntries)
		p.send(to, r, p.vnow)
		b.replies[to] = nil
	}
	for _, pg := range b.pages {
		b.sent[pg] = b.sent[pg][:0]
	}
	b.order, b.pages = b.order[:0], b.pages[:0]
}

// bitmapScratch is what sendBitmaps keeps from barrier to barrier: the
// round's reply per owner (nil outside a round), the owners in
// first-appearance order for deterministic sends, and the per-page dedup
// lists with the pages that have one.
type bitmapScratch struct {
	replies []*msg.BitmapReply
	order   []int
	sent    [][]vc.Index
	pages   []mem.PageID
}

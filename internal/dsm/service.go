package dsm

import (
	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"
	"lrcrace/internal/vc"
)

// handle is the protocol service of a process, which the scheduler calls
// for each message delivered to it: it handles requests (lock management
// and forwarding, page directory and ownership, diff application, and the
// barrier pipeline of tree.go and shard.go) and hands responses to the
// waiting application. This plays the role of CVM's request handlers that
// the underlying system invokes around page faults, synchronization and I/O.
func (p *Proc) handle(d simnet.Delivery) {
	switch m := d.Msg.(type) {
	case *msg.AcquireReq:
		p.handleAcquireReq(d, m)
	case *msg.AcquireFwd:
		p.handleAcquireFwd(d, m)
	case *msg.PageReq:
		p.handlePageReq(d, m)
	case *msg.PageFwd:
		p.handlePageFwd(d, m)
	case *msg.DiffFlush:
		p.handleDiffFlush(d, m)
	case *msg.Inval:
		p.handleInval(d, m)
	case *msg.BarrierArrive:
		p.handleBarrierArrive(d, m)
	case *msg.TreeReduce:
		p.handleTreeReduce(d, m)
	case *msg.BarrierRelease:
		p.handleBarrierRelease(d, m)
	case *msg.BitmapReply, *msg.ShardResult:
		p.dispatchShard(d)
	case *msg.AcquireGrant:
		// Consume the previous tenure's grant obligation *now*, in message
		// order: any forward handled after this grant targets the tenure
		// this grant begins, and must queue for its Unlock. (Clearing only
		// when the application takes the grant would let a forward slip
		// through on the stale flag and grant the lock to two processes at
		// once.)
		p.lock(int(m.Lock)).releasedUngranted = false
		p.reply(d)
	case *msg.BarrierDone, *msg.PageReply, *msg.DiffAck, *msg.InvalAck:
		p.reply(d)
	default:
		p.protocolBug("unhandled message %T", d.Msg)
	}
}

// handleAcquireReq runs the lock-manager role: grant directly if the lock
// is free (or being re-acquired by its last holder), otherwise forward to
// the last holder, who will grant at its release. Either way the requester
// becomes the lock's next tenure.
func (p *Proc) handleAcquireReq(d simnet.Delivery, m *msg.AcquireReq) {
	id := int(m.Lock)
	if id%p.n != p.id {
		p.protocolBug("AcquireReq for lock %d at non-manager", id)
	}
	ls := p.lock(id)
	arr := p.arrival(d) + p.model.Handler
	switch {
	case ls.lastHolder == -1 || ls.lastHolder == d.From:
		// First acquisition, or re-acquisition by the last holder: nothing
		// new for the acquirer to learn through this lock.
		if d.From == p.id {
			// Self-grant: consume our previous tenure's grant obligation
			// synchronously. A later request may be routed to us via the
			// direct localFwd call below (no message hop) while this
			// grant still sits in our own loopback link; the flag must
			// already be down by then, or that forward would be granted
			// from the stale obligation and two processes would hold the
			// lock.
			ls.releasedUngranted = false
		}
		p.tel.Emit(p.id, telemetry.KLockGrant, arr, int64(id), int64(d.From), 0)
		p.send(d.From, &msg.AcquireGrant{Lock: m.Lock}, arr)
	case ls.lastHolder == p.id:
		// The manager itself was the last holder: grant (or queue) locally.
		p.tel.Emit(p.id, telemetry.KLockForward, arr, int64(id), int64(d.From), int64(ls.lastHolder))
		p.localFwd(id, d.From, vcFromWire(m.VC), arr)
	default:
		p.tel.Emit(p.id, telemetry.KLockForward, arr, int64(id), int64(d.From), int64(ls.lastHolder))
		p.send(ls.lastHolder, &msg.AcquireFwd{Lock: m.Lock, Requester: int32(d.From), VC: m.VC}, arr)
	}
	ls.lastHolder = d.From
}

// handleAcquireFwd runs the previous-holder role for a forwarded request.
func (p *Proc) handleAcquireFwd(d simnet.Delivery, m *msg.AcquireFwd) {
	arr := p.arrival(d) + p.model.Handler
	p.localFwd(int(m.Lock), int(m.Requester), vcFromWire(m.VC), arr)
}

// localFwd routes a forwarded request at the last holder: if our most
// recent tenure has ended and still owes a grant, this forward targets it —
// grant now. Otherwise the forward follows our current (or upcoming)
// tenure, so it waits for our Unlock.
func (p *Proc) localFwd(id, requester int, theirs vc.VC, arrV int64) {
	ls := p.lock(id)
	if ls.releasedUngranted {
		ls.releasedUngranted = false
		v := arrV
		if ls.lastRelV > v {
			v = ls.lastRelV
		}
		p.grant(id, requester, theirs, ls.relVC, v)
		return
	}
	if !ls.holding && !ls.awaiting {
		p.protocolBug("forward for lock %d with no tenure to attach to", id)
	}
	ls.pending = append(ls.pending, pendingGrant{requester: requester, theirVC: theirs, arrV: arrV})
}

// handlePageReq runs the home-directory role for a page fault.
func (p *Proc) handlePageReq(d simnet.Delivery, m *msg.PageReq) {
	pg := m.Page
	if p.home(pg) != p.id {
		p.protocolBug("PageReq for page %d at non-home", pg)
	}
	arr := p.arrival(d) + p.model.Handler

	if p.sys.cfg.Protocol == MultiWriter {
		// The home copy is always current (diffs are flushed eagerly at
		// releases), so serve it directly.
		p.servePage(d.From, pg, false, arr)
		return
	}

	owner := p.dirOwner[pg]
	if owner == p.id {
		switch {
		case p.owned[pg]:
			p.servePage(d.From, pg, m.Write, arr)
		case p.expecting[pg]:
			// The home is itself re-acquiring ownership; serve once the
			// transfer lands.
			p.pendFwd[pg] = append(p.pendFwd[pg], msg.PageFwd{Page: pg, Requester: int32(d.From), Write: m.Write})
		default:
			p.protocolBug("directory says home owns page %d but it does not", pg)
		}
	} else {
		p.send(owner, &msg.PageFwd{Page: pg, Requester: int32(d.From), Write: m.Write}, arr)
	}
	if m.Write {
		p.dirOwner[pg] = d.From
	}
}

// handlePageFwd runs the current-owner role for a forwarded fault.
func (p *Proc) handlePageFwd(d simnet.Delivery, m *msg.PageFwd) {
	pg := m.Page
	arr := p.arrival(d) + p.model.Handler
	switch {
	case p.owned[pg]:
		p.servePage(int(m.Requester), pg, m.Write, arr)
	case p.expecting[pg]:
		// Ownership is in flight to us; serve once it arrives.
		p.pendFwd[pg] = append(p.pendFwd[pg], *m)
	default:
		p.protocolBug("PageFwd for page %d we neither own nor expect", pg)
	}
}

// servePage answers a fault from the local copy — the owner's, or the
// multi-writer home's; a write fault transfers ownership (single-writer
// migration).
func (p *Proc) servePage(requester int, pg mem.PageID, write bool, vtime int64) {
	if write {
		p.owned[pg] = false
		p.state[pg] = pageReadOnly
		p.tel.Emit(p.id, telemetry.KOwnershipXfer, vtime, int64(pg), int64(requester), 0)
	}
	// A sent message is frozen and its Data becomes the requester's frame,
	// so the reply carries a copy of the live page (or of the zero page, if
	// this process never needed a frame for it) in a frame of its own.
	data := mem.GetFrame(p.seg.PageSize)
	copy(data, p.seg.PageView(pg))
	p.send(requester, &msg.PageReply{Page: pg, Ownership: write, Data: data}, vtime)
}

// drainPendingFwds services page forwards queued while ownership was
// in flight. Called by the application right after it has performed
// the write that faulted the page in.
func (p *Proc) drainPendingFwds(pg mem.PageID) {
	pending := p.pendFwd[pg]
	p.pendFwd[pg] = nil
	for _, m := range pending {
		if !p.owned[pg] {
			p.protocolBug("lost ownership of page %d while draining forwards", pg)
		}
		p.servePage(int(m.Requester), pg, m.Write, p.vnow)
	}
}

// handleDiffFlush applies a releaser's diff to the home copy (multi-writer).
// If the home is itself mid-interval on the page (it has a twin), the twin
// is updated too so the home's own next diff contains only its own writes —
// the standard TreadMarks trick.
func (p *Proc) handleDiffFlush(d simnet.Delivery, m *msg.DiffFlush) {
	pg := m.Page
	if p.home(pg) != p.id {
		p.protocolBug("DiffFlush for page %d at non-home", pg)
	}
	base := p.seg.PageBase(pg)
	twin := p.twins[pg]
	for _, e := range m.Entries {
		a := base + mem.Addr(int(e.Word)*mem.WordSize)
		p.seg.SetWord(a, e.Val)
		if twin != nil {
			off := int(e.Word) * mem.WordSize
			for i := 0; i < mem.WordSize; i++ {
				twin[off+i] = byte(e.Val >> (8 * i))
			}
		}
	}
	arr := p.arrival(d) + p.model.Handler
	p.send(d.From, &msg.DiffAck{}, arr)
}

// handleInval applies an ERC release's eager invalidations and
// acknowledges them.
func (p *Proc) handleInval(d simnet.Delivery, m *msg.Inval) {
	for _, pg := range m.Pages {
		p.invalidate(pg)
	}
	arr := p.arrival(d) + p.model.Handler
	p.send(d.From, &msg.InvalAck{}, arr)
}

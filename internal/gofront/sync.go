package gofront

// This file models the Go sync primitives. Every operation (a) closes the
// calling goroutine's current interval, (b) transfers release clocks along
// the happens-before edges the Go memory model defines for the primitive,
// and (c) appends its linearization event to the trace. Blocking
// operations close their interval at the call — accesses before the call
// belong to the closed interval — and are completed later by the peer that
// unblocks them; the completion event is appended at the peer's position,
// which is the operation's linearization point.
//
// A release clock an op gets from detector.closeInterval is the releasing
// goroutine's own buffer, valid only until that goroutine's next close. An
// edge joined during the op, or by a peer while the releaser is blocked,
// reads it directly; a sync object that keeps an edge past the op copies
// it into a clock it owns and reuses (Mutex.rel, RWMutex.wRel and rdRel,
// WaitGroup.acc and cycRel, a channel's buffered elements, backpressure
// clocks and closeRel).

import "fmt"

// Chan is a modeled channel of uint64 values. Cap 0 is a rendezvous
// channel; cap > 0 a buffered FIFO with the Go memory model's
// backpressure edge (receive k happens before send k+cap completes).
type Chan struct {
	p   *Program
	id  int
	cap int

	buf      []chanElem
	bpq      []vcClock // receive-completion clocks, for the backpressure edge
	free     []vcClock // joined backpressure clocks, for later elements
	sends    int       // completed sends (1-based sequence)
	recvs    int       // completed receives
	sendq    []*G
	recvq    []*G
	closed   bool
	closeRel vcClock
}

type chanElem struct {
	v   uint64
	rel vcClock // copy of the sender's release clock, joined by the receiver
}

// NewChan makes a channel of the given capacity.
func (p *Program) NewChan(capacity int) *Chan {
	if capacity < 0 {
		panic("gofront: negative channel capacity")
	}
	ch := &Chan{p: p, id: p.nextChan, cap: capacity}
	p.nextChan++
	p.emit(OpChanMake, 0, ch.id, capacity, 0, 0)
	return ch
}

func (ch *Chan) chanOp() {
	ch.p.vt += costSync
	ch.p.stats.Syncs++
	ch.p.stats.ChanOps++
}

// Send sends v on the channel, blocking per channel semantics.
func (ch *Chan) Send(g *G, v uint64) {
	p := ch.p
	ch.chanOp()
	if ch.closed {
		panic(fmt.Sprintf("gofront: send on closed channel %d", ch.id))
	}
	rel := p.det.closeInterval(g.id, true)
	if ch.cap == 0 {
		if len(ch.recvq) > 0 {
			r := popFront(&ch.recvq)
			ch.rendezvous(g, rel, r, v)
			g.yield()
			return
		}
		g.sendVal, g.rel = v, rel
		ch.sendq = append(ch.sendq, g)
		g.block()
		return
	}
	if len(ch.buf) < ch.cap {
		ch.commitSend(g.id, v, rel)
		ch.drainRecvq()
		g.yield()
		return
	}
	g.sendVal, g.rel = v, rel
	ch.sendq = append(ch.sendq, g)
	g.block()
}

// Recv receives from the channel; ok is false for the zero value of a
// closed drained channel.
func (ch *Chan) Recv(g *G) (v uint64, ok bool) {
	p := ch.p
	ch.chanOp()
	rel := p.det.closeInterval(g.id, true)
	if ch.cap == 0 {
		if len(ch.sendq) > 0 {
			s := popFront(&ch.sendq)
			v := s.sendVal
			ch.rendezvousAsRecv(s, g, rel)
			s.wake()
			g.yield()
			return v, true
		}
		if ch.closed {
			p.det.join(g.id, ch.closeRel)
			p.emit(OpChanRecvClosed, g.id, ch.id, 0, 0, 0)
			g.yield()
			return 0, false
		}
		g.rel = rel
		ch.recvq = append(ch.recvq, g)
		g.block()
		return g.recvVal, g.recvOK
	}
	if len(ch.buf) > 0 {
		v := ch.commitRecv(g.id, rel)
		ch.completeBlockedSender()
		g.yield()
		return v, true
	}
	if ch.closed {
		p.det.join(g.id, ch.closeRel)
		p.emit(OpChanRecvClosed, g.id, ch.id, 0, 0, 0)
		g.yield()
		return 0, false
	}
	g.rel = rel
	ch.recvq = append(ch.recvq, g)
	g.block()
	return g.recvVal, g.recvOK
}

// Close closes the channel: blocked receivers complete with the zero
// value and acquire the close edge; later receives drain the buffer
// first, as in Go.
func (ch *Chan) Close(g *G) {
	p := ch.p
	ch.chanOp()
	if ch.closed {
		panic(fmt.Sprintf("gofront: close of closed channel %d", ch.id))
	}
	if len(ch.sendq) > 0 {
		panic(fmt.Sprintf("gofront: close of channel %d with blocked senders", ch.id))
	}
	rel := p.det.closeInterval(g.id, true)
	ch.closed = true
	ch.closeRel = reuse(&ch.free, rel)
	p.emit(OpChanClose, g.id, ch.id, 0, 0, 0)
	for _, r := range ch.recvq {
		r.recvVal, r.recvOK = 0, false
		p.det.join(r.id, rel)
		p.emit(OpChanRecvClosed, r.id, ch.id, 0, 0, 0)
		r.wake()
	}
	ch.recvq = nil
	g.yield()
}

// rendezvous completes an unbuffered send meeting a blocked receiver:
// both directions join (the receive happens before the send completes and
// vice versa).
func (ch *Chan) rendezvous(s *G, sRel vcClock, r *G, v uint64) {
	p := ch.p
	ch.sends++
	ch.recvs++
	p.det.join(s.id, r.rel)
	p.det.join(r.id, sRel)
	r.recvVal, r.recvOK = v, true
	p.emit(OpChanSend, s.id, ch.id, ch.sends, 0, 0)
	p.emit(OpChanRecv, r.id, ch.id, ch.recvs, 0, 0)
	r.wake()
}

// rendezvousAsRecv completes an unbuffered receive meeting a blocked
// sender (the mirror case: the receiver is the active party).
func (ch *Chan) rendezvousAsRecv(s *G, r *G, rRel vcClock) {
	p := ch.p
	ch.sends++
	ch.recvs++
	p.det.join(r.id, s.rel)
	p.det.join(s.id, rRel)
	p.emit(OpChanSend, s.id, ch.id, ch.sends, 0, 0)
	p.emit(OpChanRecv, r.id, ch.id, ch.recvs, 0, 0)
}

// commitSend places a value in the buffer for sender g (which holds a
// free slot), applying the backpressure edge when the send sequence
// exceeds the capacity. The joined backpressure clock goes to the free
// list, and the element keeps a copy of the sender's release clock.
func (ch *Chan) commitSend(gid int, v uint64, rel vcClock) {
	p := ch.p
	ch.sends++
	if ch.sends > ch.cap {
		bp := popFront(&ch.bpq)
		p.det.join(gid, bp)
		ch.free = append(ch.free, bp)
	}
	ch.buf = append(ch.buf, chanElem{v: v, rel: reuse(&ch.free, rel)})
	p.emit(OpChanSend, gid, ch.id, ch.sends, 0, 0)
}

// commitRecv takes the buffer head for receiver g and publishes the
// receive-completion clock the backpressure edge carries: the receiver's
// knowledge at the call merged with the joined sender clock, merged into
// the element's own clock.
func (ch *Chan) commitRecv(gid int, rRel vcClock) uint64 {
	p := ch.p
	e := popFront(&ch.buf)
	ch.recvs++
	p.det.join(gid, e.rel)
	e.rel.Merge(rRel)
	ch.bpq = append(ch.bpq, e.rel)
	p.emit(OpChanRecv, gid, ch.id, ch.recvs, 0, 0)
	return e.v
}

// completeBlockedSender moves the head blocked sender's value into the
// slot a receive just freed.
func (ch *Chan) completeBlockedSender() {
	if len(ch.sendq) == 0 || len(ch.buf) >= ch.cap {
		return
	}
	s := popFront(&ch.sendq)
	ch.commitSend(s.id, s.sendVal, s.rel)
	s.wake()
}

// drainRecvq completes blocked receivers while buffered values are
// available.
func (ch *Chan) drainRecvq() {
	for len(ch.recvq) > 0 && len(ch.buf) > 0 {
		r := popFront(&ch.recvq)
		r.recvVal, r.recvOK = ch.commitRecv(r.id, r.rel), true
		r.wake()
	}
}

// Mutex is a modeled sync.Mutex: unlock n happens before lock n+1.
type Mutex struct {
	p      *Program
	id     int
	holder *G
	rel    vcClock // copy of the last Unlock's release clock
	waitq  []*G
}

// NewMutex makes a mutex.
func (p *Program) NewMutex() *Mutex {
	m := &Mutex{p: p, id: p.nextMutex}
	p.nextMutex++
	return m
}

func (m *Mutex) lockOp() {
	m.p.vt += costSync
	m.p.stats.Syncs++
	m.p.stats.LockOps++
}

// Lock acquires the mutex, blocking FIFO behind the current holder.
func (m *Mutex) Lock(g *G) {
	p := m.p
	m.lockOp()
	p.det.closeInterval(g.id, false)
	if m.holder == nil {
		m.holder = g
		p.det.join(g.id, m.rel)
		p.emit(OpMuLock, g.id, m.id, 0, 0, 0)
		g.yield()
		return
	}
	m.waitq = append(m.waitq, g)
	g.futureLB = m
	g.block()
}

// resumeLB implements resumeBound: a Lock waiter will join a hand-off
// clock at least as large as the current holder's knowledge.
func (m *Mutex) resumeLB() vcClock {
	if m.holder != nil {
		return m.p.det.vcs[m.holder.id]
	}
	return nil
}

// Unlock releases the mutex and hands it to the head waiter, if any.
func (m *Mutex) Unlock(g *G) {
	p := m.p
	m.lockOp()
	if m.holder != g {
		panic(fmt.Sprintf("gofront: unlock of mutex %d by non-holder g%d", m.id, g.id))
	}
	rel := p.det.closeInterval(g.id, true)
	m.rel = keep(m.rel, rel)
	p.emit(OpMuUnlock, g.id, m.id, 0, 0, 0)
	if len(m.waitq) > 0 {
		h := popFront(&m.waitq)
		m.holder = h
		p.det.join(h.id, rel)
		p.emit(OpMuLock, h.id, m.id, 0, 0, 0)
		h.wake()
	} else {
		m.holder = nil
	}
	g.yield()
}

// RWMutex is a modeled sync.RWMutex. Writer Unlock happens before both
// the next Lock and the next RLocks; every RUnlock happens before the
// next writer Lock. Readers do not order each other. Writers take
// priority: new readers queue behind a waiting writer.
type RWMutex struct {
	p        *Program
	id       int
	wHolder  *G
	readers  int
	wRel     vcClock // copy of the last writer Unlock's clock
	rdRel    vcClock // merged RUnlock clocks since the last writer Lock (zero after it)
	runlocks int     // RUnlock sequence for the per-unlock reader edges
	rWaitq   []*G
	wWaitq   []*G
}

// NewRWMutex makes a reader/writer mutex.
func (p *Program) NewRWMutex() *RWMutex {
	m := &RWMutex{p: p, id: p.nextRW}
	p.nextRW++
	return m
}

func (m *RWMutex) lockOp() {
	m.p.vt += costSync
	m.p.stats.Syncs++
	m.p.stats.LockOps++
}

// RLock takes a read lock.
func (m *RWMutex) RLock(g *G) {
	p := m.p
	m.lockOp()
	p.det.closeInterval(g.id, false)
	if m.wHolder == nil && len(m.wWaitq) == 0 {
		m.readers++
		p.det.join(g.id, m.wRel)
		p.emit(OpRWRLock, g.id, m.id, 0, 0, 0)
		g.yield()
		return
	}
	m.rWaitq = append(m.rWaitq, g)
	g.futureLB = m
	g.block()
}

// resumeLB implements resumeBound: a reader or writer waiting on the lock
// will join at least the current writer's knowledge.
func (m *RWMutex) resumeLB() vcClock {
	if m.wHolder != nil {
		return m.p.det.vcs[m.wHolder.id]
	}
	return nil
}

// RUnlock drops a read lock; when the last reader leaves, a waiting
// writer is admitted with every reader release clock joined.
func (m *RWMutex) RUnlock(g *G) {
	p := m.p
	m.lockOp()
	if m.readers <= 0 {
		panic(fmt.Sprintf("gofront: runlock of rwmutex %d with no readers", m.id))
	}
	rel := p.det.closeInterval(g.id, true)
	m.readers--
	m.runlocks++
	if m.rdRel == nil {
		m.rdRel = rel.Copy()
	} else {
		m.rdRel.Merge(rel)
	}
	p.emit(OpRWRUnlock, g.id, m.id, m.runlocks, 0, 0)
	if m.readers == 0 && len(m.wWaitq) > 0 {
		m.admitWriter()
	}
	g.yield()
}

// Lock takes the write lock.
func (m *RWMutex) Lock(g *G) {
	p := m.p
	m.lockOp()
	p.det.closeInterval(g.id, false)
	if m.wHolder == nil && m.readers == 0 {
		m.wHolder = g
		p.det.join(g.id, m.wRel)
		p.det.join(g.id, m.rdRel)
		clear(m.rdRel)
		p.emit(OpRWLock, g.id, m.id, 0, 0, 0)
		g.yield()
		return
	}
	m.wWaitq = append(m.wWaitq, g)
	g.futureLB = m
	g.block()
}

// Unlock drops the write lock; all queued readers are admitted together,
// else the next writer.
func (m *RWMutex) Unlock(g *G) {
	p := m.p
	m.lockOp()
	if m.wHolder != g {
		panic(fmt.Sprintf("gofront: unlock of rwmutex %d by non-holder g%d", m.id, g.id))
	}
	rel := p.det.closeInterval(g.id, true)
	m.wRel = keep(m.wRel, rel)
	m.wHolder = nil
	p.emit(OpRWUnlock, g.id, m.id, 0, 0, 0)
	if len(m.rWaitq) > 0 {
		for _, r := range m.rWaitq {
			m.readers++
			p.det.join(r.id, m.wRel)
			p.emit(OpRWRLock, r.id, m.id, 0, 0, 0)
			r.wake()
		}
		m.rWaitq = truncate(m.rWaitq)
	} else if len(m.wWaitq) > 0 {
		m.admitWriter()
	}
	g.yield()
}

func (m *RWMutex) admitWriter() {
	p := m.p
	h := popFront(&m.wWaitq)
	m.wHolder = h
	p.det.join(h.id, m.wRel)
	p.det.join(h.id, m.rdRel)
	clear(m.rdRel)
	p.emit(OpRWLock, h.id, m.id, 0, 0, 0)
	h.wake()
}

// WaitGroup is a modeled sync.WaitGroup: the Done calls that complete a
// counter cycle happen before the Waits that observe it.
type WaitGroup struct {
	p      *Program
	id     int
	count  int
	dones  int     // Done sequence counter
	acc    vcClock // merged Done clocks of the running cycle (zero before its first)
	cycRel vcClock // merged Done clocks of the last completed cycle
	cycLo  int     // Done sequence range of the last completed cycle
	cycHi  int
	waitq  []*G
}

// NewWaitGroup makes a wait group.
func (p *Program) NewWaitGroup() *WaitGroup {
	w := &WaitGroup{p: p, id: p.nextWG}
	p.nextWG++
	return w
}

// Add adds delta to the counter. Negative deltas behave as Dones.
func (w *WaitGroup) Add(g *G, delta int) {
	if delta < 0 {
		for i := 0; i < -delta; i++ {
			w.Done(g)
		}
		return
	}
	w.count += delta
}

// Done decrements the counter, releasing waiters when it reaches zero.
func (w *WaitGroup) Done(g *G) {
	p := w.p
	p.vt += costSync
	p.stats.Syncs++
	p.stats.WGOps++
	if w.count <= 0 {
		panic(fmt.Sprintf("gofront: negative WaitGroup %d counter", w.id))
	}
	rel := p.det.closeInterval(g.id, true)
	w.count--
	w.dones++
	if w.acc == nil {
		w.acc = rel.Copy()
	} else {
		w.acc.Merge(rel)
	}
	p.emit(OpWgDone, g.id, w.id, w.dones, 0, 0)
	if w.count == 0 {
		w.cycRel, w.acc = w.acc, w.cycRel
		clear(w.acc)
		w.cycLo = w.cycHi + 1
		w.cycHi = w.dones
		for _, waiter := range w.waitq {
			p.det.join(waiter.id, w.cycRel)
			p.emit(OpWgWait, waiter.id, w.id, w.cycLo, w.cycHi, 0)
			waiter.wake()
		}
		w.waitq = truncate(w.waitq)
	}
	g.yield()
}

// Wait blocks until the counter reaches zero; a Wait on a zero counter
// joins the last completed cycle's Dones.
func (w *WaitGroup) Wait(g *G) {
	p := w.p
	p.vt += costSync
	p.stats.Syncs++
	p.stats.WGOps++
	p.det.closeInterval(g.id, false)
	if w.count == 0 {
		p.det.join(g.id, w.cycRel)
		p.emit(OpWgWait, g.id, w.id, w.cycLo, w.cycHi, 0)
		g.yield()
		return
	}
	w.waitq = append(w.waitq, g)
	g.futureLB = w
	g.block()
}

// resumeLB implements resumeBound: a waiter will join the cycle release
// clock, which accumulates every Done of the running cycle — the Dones
// merged so far bound it below (a zero clock before the first).
func (w *WaitGroup) resumeLB() vcClock { return w.acc }

// popFront removes and returns the head of the FIFO q. It shifts the rest
// down rather than reslicing past the head, so later appends reuse the
// array instead of growing a new one.
func popFront[T any](q *[]T) T {
	s := *q
	h := s[0]
	copy(s, s[1:])
	clear(s[len(s)-1:])
	*q = s[:len(s)-1]
	return h
}

// keep copies the release clock rel into dst, a clock the caller owns and
// reuses, and returns it; a nil dst is allocated on first use.
func keep(dst, rel vcClock) vcClock {
	if dst == nil {
		return rel.Copy()
	}
	copy(dst, rel)
	return dst
}

// truncate empties the FIFO q, keeping its array for later appends.
func truncate[T any](q []T) []T {
	clear(q)
	return q[:0]
}

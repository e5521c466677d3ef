//go:build go1.23

// The build constraint raises this file's language version to go1.23, the
// first with the iter package, while the module's go line stays at 1.22. A
// toolchain older than go1.23 leaves the file out, and the package does not
// build without it.

package dsm

import (
	"fmt"
	"iter"
	"strings"

	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"
)

// The scheduler: one thread of control per run attempt. Every process's
// application body is a coroutine, and the protocol handlers (service.go,
// tree.go, shard.go) are plain calls the scheduler makes for each delivery.
// A step advances the earliest event in virtual time — the runnable
// coroutine with the least clock, or the queued delivery with the earliest
// arrival — so one input has one interleaving:
//
//   - Ties go to the delivery, then to the lower process id; deliveries tie
//     on sender, then receiver. No seed enters the order.
//   - A delivery waits in one place from its send to its handler: the FIFO
//     of its directed link in the attempt's simnet.Network, where Send (or
//     the reliability sublayer, once the message is in sequence) puts it.
//     Only a link's head competes, so nothing is handled before an earlier
//     send on its link, whatever the jitter did to arrival times. The
//     network tells the scheduler of each new head (OnHead), which keeps
//     the non-empty links in a heap.
//   - A handled reply runs its waiting coroutine at once, before any other
//     event, so a barrier-departure trigger reaches the application before
//     any later message is handled at that process: the checkpoint it cuts
//     on departure is the recovery line.
//   - Lock, Unlock and Barrier are scheduling points even when they send
//     nothing, so a manager re-acquiring its own lock cannot run ahead of
//     its peers' earlier requests.
//   - Before each pick the reliability sublayer, when the run carries it,
//     sends the acknowledgments its receivers owe (reliable.Flush). With
//     nothing runnable and nothing queued it fires its earliest deadline:
//     a retransmission, a delayed acknowledgment, or a link's death. Its
//     clock is virtual, so every retry happens in one order and nothing
//     waits in real time.
//   - With no deadline left nothing can arrive, since every delivery
//     comes from a send: every blocked coroutine raises a timeoutPanic at
//     once, a deadlock.

// runState is where a process's coroutine stands.
type runState uint8

const (
	runnable runState = iota // picked when it is the earliest event
	blocked                  // waiting for a reply or a gate
	exited                   // returned, panicked, or crashed
)

// stopSignal is the panic a stopped coroutine unwinds with.
type stopSignal struct{}

// The attempt's error classes, from least to most diagnostic: a genuine
// bug beats the injected crash, which beats the detection timeout it
// provoked, which beats the "network shut down" a link death induces.
const (
	errShutdown = iota
	errTimeout
	errCrash
	errGenuine
)

// sched runs one attempt of a System.
type sched struct {
	s        *System
	procs    []*Proc
	net      *simnet.Network // the attempt's wire: its link FIFOs hold every delivery not yet handled
	heads    linkHeap        // the links holding a delivery, earliest head first
	live     int             // coroutines not yet exited
	halted   bool            // a genuine panic ended the attempt
	finished bool            // the loop is over: a suspended coroutine unwinds
	errs     []error
	ranks    []int
}

// linkHead is a non-empty link: its endpoints and its head's virtual
// arrival.
type linkHead struct {
	key      int64
	from, to int
}

// before orders link heads by arrival, then sender, then receiver: a total
// order, so a pick never depends on the order deliveries were queued in.
func (a linkHead) before(b linkHead) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.from != b.from {
		return a.from < b.from
	}
	return a.to < b.to
}

// linkHeap is a binary min-heap of link heads.
type linkHeap []linkHead

func (h *linkHeap) push(x linkHead) {
	*h = append(*h, x)
	q := *h
	for i := len(q) - 1; i > 0 && q[i].before(q[(i-1)/2]); i = (i - 1) / 2 {
		q[i], q[(i-1)/2] = q[(i-1)/2], q[i]
	}
}

// popTop removes the earliest head.
func (h *linkHeap) popTop() {
	q := *h
	q[0] = q[len(q)-1]
	*h = q[:len(q)-1]
	h.down()
}

// down restores the heap after the earliest head's key grew.
func (h linkHeap) down() {
	for i := 0; ; {
		c := 2*i + 1 // the earlier child
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if c >= len(h) || !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// schedule runs body on every process of the attempt and returns the
// root-cause error, if any.
func (s *System) schedule(body func(p *Proc)) error {
	n := len(s.procs)
	sc := &sched{s: s, procs: s.procs, net: s.wire, errs: make([]error, n), ranks: make([]int, n)}
	sc.net.OnHead(sc.queued)
	s.sched = sc
	for _, p := range s.procs {
		p.run, p.replies, p.abort = runnable, nil, nil
		sc.live++
		p.resume, p.stop = iter.Pull(func(park func(struct{}) bool) {
			defer func() { sc.exit(p, recover()) }()
			p.park = park
			body(p)
		})
	}
	defer func() {
		sc.finished = true
		for _, p := range s.procs {
			p.stop() // a no-op for an exited coroutine
		}
	}()
	for !sc.halted {
		sc.flush()
		if p := sc.pick(); p != nil {
			p.resume()
		} else if len(sc.heads) > 0 {
			sc.deliver()
		} else if sc.live > 0 {
			sc.stuck()
		} else {
			break
		}
	}
	var best error
	bestRank := -1
	for i, e := range sc.errs {
		if e != nil && sc.ranks[i] > bestRank {
			best, bestRank = e, sc.ranks[i]
		}
	}
	return best
}

// queued enters a link whose FIFO d has just become the head of into the
// heap (simnet.Network.OnHead).
func (sc *sched) queued(to int, d simnet.Delivery) {
	sc.heads.push(linkHead{key: sc.procs[to].arrival(d), from: d.From, to: to})
}

// flush has the reliability sublayer, if the run carries it, send the
// acknowledgments owed so far. It runs before every pick, and only there:
// a process's run of sends between two picks goes out before the
// acknowledgments they provoke, whatever the acknowledgments release.
func (sc *sched) flush() {
	if rel := sc.s.rel; rel != nil {
		rel.Flush()
	}
}

// pick returns the runnable coroutine that is the earliest event, or nil
// when there is none or a queued delivery is as early. The coroutine
// running now is runnable too: at a scheduling point it continues when it
// is its own pick.
func (sc *sched) pick() *Proc {
	var best *Proc
	for _, p := range sc.procs {
		if p.run == runnable && (best == nil || p.vnow < best.vnow) {
			best = p
		}
	}
	if best != nil && len(sc.heads) > 0 && sc.heads[0].key <= best.vnow {
		return nil
	}
	return best
}

// deliver handles the earliest queued delivery.
func (sc *sched) deliver() {
	top := &sc.heads[0]
	to := top.to
	link := sc.net.Link(top.from, to)
	d, _ := link.Pop()
	if next := link.Peek(); next != nil {
		top.key = sc.procs[to].arrival(*next)
		sc.heads.down()
	} else {
		sc.heads.popTop()
	}
	if p := sc.procs[to]; !p.crashed {
		if see := sc.s.seeDelivery; see != nil {
			see(to, d)
		}
		p.handle(d)
	}
}

// stuck runs when nothing is runnable and nothing is queued: fire the
// reliability sublayer's earliest deadline, or, with none left, fail every
// blocked coroutine — with a timeoutPanic, or the shutdown panic once a
// link death has closed the wire.
func (sc *sched) stuck() {
	if rel := sc.s.rel; rel != nil && rel.Advance() {
		return
	}
	closed := sc.net.Closed()
	for _, p := range sc.procs {
		if p.run != blocked {
			continue
		}
		if closed {
			p.abort = "dsm: network shut down while waiting for a reply"
		} else {
			tp := timeoutPanic{proc: p.id, op: p.waitOp, suspect: -1}
			tp.suspect, tp.detail = p.barrierBlame(p.waitOp)
			p.abort = tp
		}
		p.resume()
	}
}

// exit records how p's coroutine ended; r is what it panicked with.
func (sc *sched) exit(p *Proc, r any) {
	p.run = exited
	sc.live--
	if r == nil || sc.finished {
		return
	}
	s, i := sc.s, p.id
	sc.errs[i] = fmt.Errorf("dsm: proc %d panicked: %v", i, r)
	switch pv := r.(type) {
	case crashPanic:
		// An injected crash halts nothing: nothing announces a real
		// machine's death either. The survivors must detect it themselves —
		// link retry-cap exhaustion, or the wait that can never end.
		sc.ranks[i] = errCrash
		p.crashed = true
		s.crashSeen = true
	case timeoutPanic:
		sc.ranks[i] = errTimeout
		s.noteTimeoutVerdict(i, pv.suspect)
		s.tel.Trip(telemetry.TripBarrierTimeout, fmt.Sprintf("proc %d: %v", i, pv))
		s.tel.Emit(i, telemetry.KCrashDetected, 0, int64(pv.suspect), 0, 0)
	default:
		if strings.Contains(fmt.Sprint(r), "network shut down") {
			sc.ranks[i] = errShutdown
			return
		}
		// Dump the flight recorder for the root cause only, and end the
		// attempt: the other processes stop where they are.
		sc.ranks[i] = errGenuine
		s.tel.Trip(telemetry.TripProcPanic, fmt.Sprintf("proc %d panicked: %v", i, r))
		sc.halted = true
	}
}

// yield is a scheduling point: p stays runnable, and every earlier event
// goes first. When p is still the earliest it simply continues.
func (p *Proc) yield() {
	sc := p.sys.sched
	sc.flush()
	if sc.pick() != p {
		p.suspend()
	}
}

// block parks p until a reply or a gate wakes it; op names the wait in a
// timeout.
func (p *Proc) block(op string) {
	p.run, p.waitOp = blocked, op
	p.suspend()
}

// suspend hands control back to the loop until p is picked again, then
// raises whatever the loop resumed it to raise.
func (p *Proc) suspend() {
	if p.sys.sched.finished || !p.park(struct{}{}) {
		panic(stopSignal{})
	}
	if a := p.abort; a != nil {
		p.abort = nil
		panic(a)
	}
}

// reply hands a handled response to the application, and runs the waiting
// coroutine at once.
func (p *Proc) reply(d simnet.Delivery) {
	p.replies = append(p.replies, d)
	if p.run == blocked && p.waitOp != gateOp {
		p.run = runnable
		p.resume()
	}
}

// waitReply returns the next response-class message, blocking for it. op
// names the wait in timeouts and bug reports.
func (p *Proc) waitReply(op string) simnet.Delivery {
	for len(p.replies) == 0 {
		p.block(op)
	}
	d := p.replies[0]
	n := copy(p.replies, p.replies[1:])
	p.replies[n] = simnet.Delivery{}
	p.replies = p.replies[:n]
	return d
}

const gateOp = "gate"

// Gate is a one-shot signal between processes that the DSM does not see:
// no interval closes and no knowledge moves, so the accesses it orders
// still race. Scenarios use it to fix which process goes first. A process
// opens it once; Wait parks others until then.
type Gate struct {
	open    bool
	waiting []*Proc
}

// Open opens the gate and makes its waiters runnable.
func (g *Gate) Open() {
	g.open = true
	for _, p := range g.waiting {
		p.run = runnable
	}
	g.waiting = nil
}

// Wait parks the calling process until g is open.
func (p *Proc) Wait(g *Gate) {
	for !g.open {
		g.waiting = append(g.waiting, p)
		p.block(gateOp)
	}
}

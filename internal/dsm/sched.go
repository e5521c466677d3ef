//go:build go1.23

// The build constraint raises this file's language version to go1.23, the
// first with the iter package, while the module's go line stays at 1.22. A
// toolchain older than go1.23 leaves the file out, and the package does not
// build without it.

package dsm

import (
	"container/heap"
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
// coroutine with the least clock, or the buffered delivery with the
// earliest arrival — so one input has one interleaving:
//
//   - Ties go to the delivery, then to the lower process id; deliveries tie
//     on sender, then receiver. No seed enters the order.
//   - Deliveries wait in per-link FIFOs and only a link's head competes, so
//     nothing is handled before an earlier send on its link, whatever the
//     jitter did to arrival times.
//   - A handled reply runs its waiting coroutine at once, before any other
//     event, so a barrier-departure trigger reaches the application before
//     any later message is handled at that process: the checkpoint it cuts
//     on departure is the recovery line.
//   - Lock, Unlock and Barrier are scheduling points even when they send
//     nothing, so a manager re-acquiring its own lock cannot run ahead of
//     its peers' earlier requests.
//   - With nothing runnable and nothing buffered, a transport with
//     deadlines of its own (reliable.Transport) fires the earliest: a
//     retransmission, a delayed acknowledgment, or a link's death. Its
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
	links    []link   // [from*n+to]
	heads    linkHeap // the links holding a delivery, earliest head first
	live     int      // coroutines not yet exited
	closed   bool     // the transport reported simnet.ErrClosed
	quiet    bool     // it reported simnet.ErrQuiet, and nothing was sent since
	halted   bool     // a genuine panic ended the attempt
	finished bool     // the loop is over: a suspended coroutine unwinds
	errs     []error
	ranks    []int
}

// link is one directed link's deliveries not yet handled, q[head:]; key is
// the head's virtual arrival.
type link struct {
	from, to, head int
	q              []simnet.Delivery
	key            int64
}

// linkHeap orders the non-empty links by head arrival, then sender, then
// receiver: a total order, so a pick never depends on buffering order.
type linkHeap []*link

func (h linkHeap) Len() int { return len(h) }
func (h linkHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.key != b.key {
		return a.key < b.key
	}
	if a.from != b.from {
		return a.from < b.from
	}
	return a.to < b.to
}
func (h linkHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *linkHeap) Push(x any)   { *h = append(*h, x.(*link)) }
func (h *linkHeap) Pop() any {
	l := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return l
}

// schedule runs body on every process of the attempt and returns the
// root-cause error, if any.
func (s *System) schedule(body func(p *Proc)) error {
	n := len(s.procs)
	sc := &sched{s: s, procs: s.procs, links: make([]link, n*n), errs: make([]error, n), ranks: make([]int, n)}
	for i := range sc.links {
		sc.links[i].from, sc.links[i].to = i/n, i%n
	}
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
		s.nw.Close()
	}()
	for !sc.halted {
		sc.drain()
		if p := sc.pick(); p != nil {
			p.resume()
		} else if sc.heads.Len() > 0 {
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

// drain moves everything the transport has queued into the link FIFOs.
func (sc *sched) drain() {
	for !sc.closed && !sc.quiet {
		to, d, err := sc.s.nw.Next()
		if err != nil {
			sc.closed, sc.quiet = err == simnet.ErrClosed, err == simnet.ErrQuiet
			return
		}
		sc.buffer(to, d)
	}
}

func (sc *sched) buffer(to int, d simnet.Delivery) {
	l := &sc.links[d.From*len(sc.procs)+to]
	if l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
	l.q = append(l.q, d)
	if len(l.q)-l.head == 1 {
		l.key = sc.procs[to].arrival(d)
		heap.Push(&sc.heads, l)
	}
}

// pick returns the runnable coroutine that is the earliest event, or nil
// when there is none or a buffered delivery is as early. The coroutine
// running now is runnable too: at a scheduling point it continues when it
// is its own pick.
func (sc *sched) pick() *Proc {
	var best *Proc
	for _, p := range sc.procs {
		if p.run == runnable && (best == nil || p.vnow < best.vnow) {
			best = p
		}
	}
	if best != nil && sc.heads.Len() > 0 && sc.heads[0].key <= best.vnow {
		return nil
	}
	return best
}

// deliver handles the earliest buffered delivery.
func (sc *sched) deliver() {
	l := sc.heads[0]
	d := l.q[l.head]
	l.q[l.head] = simnet.Delivery{}
	l.head++
	if l.head < len(l.q) {
		l.key = sc.procs[l.to].arrival(l.q[l.head])
		heap.Fix(&sc.heads, 0)
	} else {
		heap.Pop(&sc.heads)
	}
	if p := sc.procs[l.to]; !p.crashed {
		p.handle(d)
	}
}

// stuck runs when nothing is runnable and nothing is buffered: fire the
// reliability sublayer's earliest deadline, or, with none left, fail every
// blocked coroutine — with a timeoutPanic, or the shutdown panic once the
// transport is closed.
func (sc *sched) stuck() {
	if rel := sc.s.rel; rel != nil && !sc.closed && rel.Advance() {
		sc.quiet = false
		return
	}
	for _, p := range sc.procs {
		if p.run != blocked {
			continue
		}
		if sc.closed {
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
	sc.drain()
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

// Package simnet is the simulated interconnect of the DSM: one endpoint per
// process, one unbounded FIFO per directed link, and per-message-type
// traffic statistics.
//
// It substitutes for the paper's 155 Mbit ATM + UDP transport. Every send
// marshals the message to bytes, so the byte counts behind the bandwidth
// results of Table 3 come from real encodings; virtual transmission time
// is computed by the receiver from the sender's virtual send time and the
// byte count (see costmodel). The encoding only sizes the message: what
// the receiver gets is the sent message itself, not a parse of its bytes.
// LRC is defined by messages and their order, not by whose memory holds
// them, so a handed-over message serves the protocol exactly as a copy
// would.
//
// The contract that makes this safe is that a sent message is frozen: the
// sender never writes to it, or to anything it references, once Send has
// it, and every receiver only reads it. Sent state is therefore built
// fresh, or given up, for each send. The one exception is a PageReply's
// Data, which the sender hands over as a frame of its own (mem.GetFrame)
// that the receiver keeps as its page frame. dsm.Transport states the same
// contract to the DSM.
//
// Send encodes into a pooled buffer (msg.AppendMarshal) and returns it to
// the pool at once, so the wire allocates nothing a message does not
// already hold. In test binaries Send also proves the codec on every
// message it carries: it decodes the encoding, re-encodes the result and
// panics unless the two agree (checkCodec).
//
// A delivery waits in exactly one place: the FIFO of its directed link.
// Send appends to it before returning, and so does the fault injector when
// it releases a message it held back; a reader takes from it directly
// (Recv, or Link for a reader that orders the links itself, as the DSM
// scheduler does, hearing of each new head through OnHead). The
// reliability sublayer takes the wire's deliveries instead (Intercept) and
// appends them once they are in sequence (Push). A FIFO forgets each
// delivery it hands out. A Network belongs to one thread: nothing in it
// waits or locks.
//
// Forward re-sends a message the caller received, charging the wire the
// bytes and fragments that message was serialized to once, without
// encoding it again. The DSM forwards its barrier release this way, so a
// release is encoded once per epoch, not once per receiver; all N
// processes receive the one message the root built.
package simnet

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/telemetry"
)

// UDPOverhead is the per-message header overhead charged to the wire
// (UDP + IP + AAL5 framing, rounded).
const UDPOverhead = 42

// DefaultMTU is the largest datagram the transport carries unfragmented —
// the "system maximum" message size the paper ran into when read notices
// grew ("current message sizes are already at system maximums"). Larger
// payloads are fragmented: each fragment is a message (and pays latency).
const DefaultMTU = 63 * 1024

// Delivery is one received message with its wire metadata.
type Delivery struct {
	From  int
	VTime int64 // sender's virtual clock at send
	Bytes int   // full wire size including UDPOverhead
	Frags int   // datagrams the payload needed (1 unless it exceeded the MTU)
	Msg   msg.Message
}

// Stats aggregates traffic counters. Counters are totals across all
// endpoints; the race-detection-specific byte counters are filled in by the
// DSM layer (which knows which bytes are read notices).
//
// Messages/Bytes count everything that entered the wire, including
// network-duplicated copies and (when the internal/reliable sublayer fills
// them in) retransmissions and acknowledgments — so Table-3-style bandwidth
// numbers stay honest under chaos.
type Stats struct {
	Messages [msg.NumTypes]int64
	Bytes    [msg.NumTypes]int64

	// Fault injection (FaultPlan), counted per wire message type.
	Dropped    [msg.NumTypes]int64
	Duplicated [msg.NumTypes]int64
	Reordered  int64

	// Reliability sublayer (internal/reliable).
	Retransmits  int64 // data packets resent on a retransmission deadline
	RetransBytes int64 // wire bytes of those resends (also in Bytes)
	Deduped      int64 // receiver-side duplicate suppressions

	// Transport-level errors the reliability sublayer counts: links it
	// declared dead and payloads that did not decode.
	Errors int64
}

// TotalMessages returns the number of messages sent.
func (s Stats) TotalMessages() int64 {
	var n int64
	for _, x := range s.Messages {
		n += x
	}
	return n
}

// TotalBytes returns the number of wire bytes sent.
func (s Stats) TotalBytes() int64 {
	var n int64
	for _, x := range s.Bytes {
		n += x
	}
	return n
}

// TotalDropped returns the number of messages the faulty wire discarded.
func (s Stats) TotalDropped() int64 {
	var n int64
	for _, x := range s.Dropped {
		n += x
	}
	return n
}

// TotalDuplicated returns the number of messages the faulty wire doubled.
func (s Stats) TotalDuplicated() int64 {
	var n int64
	for _, x := range s.Duplicated {
		n += x
	}
	return n
}

// Network connects n endpoints with one unbounded FIFO per directed link,
// where each delivery waits until it is taken (Recv, or the reader Link
// serves). Delivery is reliable and FIFO by default; SetFaults makes the
// wire lossy. A Network belongs to one thread: it has no lock.
type Network struct {
	n     int
	links []FIFO // [from*n+to]

	// intercept, when set, takes every delivery the wire makes instead of
	// its link's FIFO; onHead is told when a delivery lands in an empty
	// FIFO. See Intercept and OnHead.
	intercept func(to int, d Delivery)
	onHead    func(to int, d Delivery)

	faults *FaultPlan
	fault  []faultLink // per ordered pair, indexed from*n+to; nil without faults

	// tel is where fault-injection events go; the zero Scope records
	// nothing. Set before traffic via SetTelemetry.
	tel telemetry.Scope

	stats   Stats
	started bool // first Send seen; SetTelemetry/SetFaults are sealed after this
	closed  bool
}

// SetTelemetry scopes the network's fault-injection events (WireDrop /
// WireDup / WireReorder) to a specific recording session, so concurrent
// networks in one process record into their own Systems' recorders.
// It must be called before traffic starts.
func (nw *Network) SetTelemetry(tel telemetry.Scope) {
	if nw.started {
		panic("simnet: SetTelemetry after traffic has started")
	}
	nw.tel = tel
}

// New returns a network with n endpoints, numbered 0..n-1.
func New(n int) *Network {
	return &Network{n: n, links: make([]FIFO, n*n)}
}

// Size returns the number of endpoints.
func (nw *Network) Size() int { return nw.n }

// Intercept routes every delivery the wire makes — sends, forwards and
// fault-injected copies, in the order they arrive — to f instead of the
// link FIFOs. f hands on what it accepts with Push. The reliability
// sublayer installs itself here to unwrap its envelopes.
func (nw *Network) Intercept(f func(to int, d Delivery)) { nw.intercept = f }

// OnHead makes Push call f with each delivery that lands in an empty link
// FIFO, that is, becomes its link's head. A reader that orders the links
// by their heads (the DSM scheduler) learns of each new head this way.
func (nw *Network) OnHead(f func(to int, d Delivery)) { nw.onHead = f }

// checkCodec makes Send prove the codec on every message it carries (see
// roundTrip). It is on in test binaries only, so every test that sends a
// message checks its encoding for free; other binaries skip the decode.
var checkCodec = testing.Testing()

// Send hands m to endpoint to and returns its wire size in bytes: m is
// encoded only to size it — the size the stats, the fault injector and
// the receiver's virtual arrival time are charged — and then delivered
// itself. vtime is the sender's virtual clock at the moment of sending. m
// is frozen from here on: the sender must not write to it or to anything
// it references, and the receiver only reads it (see the package comment).
func (nw *Network) Send(from, to int, m msg.Message, vtime int64) int {
	buf := getBuf()
	wire := msg.AppendMarshal(*buf, m)
	if checkCodec {
		roundTrip(m, wire)
	}
	frags := max(1, (len(wire)+DefaultMTU-1)/DefaultMTU)
	size := len(wire) + frags*UDPOverhead
	*buf = wire
	putBuf(buf)
	return nw.transmit(to, Delivery{From: from, VTime: vtime, Bytes: size, Frags: frags, Msg: m})
}

// roundTrip panics unless wire, the encoding of m, decodes to a message
// that encodes to wire again. The decoded copy is dropped, its page image
// back into the frame pool.
func roundTrip(m msg.Message, wire []byte) {
	parsed, err := msg.Unmarshal(wire)
	if err != nil {
		panic(fmt.Sprintf("simnet: message %v does not survive the wire: %v", m.Type(), err))
	}
	buf := getBuf()
	again := msg.AppendMarshal(*buf, parsed)
	same := bytes.Equal(again, wire)
	*buf = again
	putBuf(buf)
	if rep, ok := parsed.(*msg.PageReply); ok {
		mem.PutFrame(rep.Data)
	}
	if !same {
		panic(fmt.Sprintf("simnet: message %v re-encodes to other bytes after a round trip", m.Type()))
	}
}

// Forward re-sends d, a delivery the caller has received, from endpoint
// from to endpoint to with the virtual send time vtime, and returns the
// wire size in bytes.
// The wire is charged exactly as Send would charge it — d.Bytes and
// d.Frags under d.Msg's type, and the same fault injection — but the
// message is not encoded again: to receives d.Msg itself, frozen as every
// sent message is.
func (nw *Network) Forward(from, to int, d Delivery, vtime int64) int {
	return nw.transmit(to, Delivery{From: from, VTime: vtime, Bytes: d.Bytes, Frags: d.Frags, Msg: d.Msg})
}

// transmit accounts for d and delivers it at to, through the fault
// injector unless it is a self-send, and returns its wire size.
func (nw *Network) transmit(to int, d Delivery) int {
	if to < 0 || to >= nw.n {
		panic(fmt.Sprintf("simnet: send to invalid endpoint %d", to))
	}
	t := d.Msg.Type()
	nw.started = true
	nw.stats.Messages[t] += int64(d.Frags)
	nw.stats.Bytes[t] += int64(d.Bytes)

	if nw.faults == nil || d.From == to {
		// Self-sends never traverse the wire (loopback), so they are
		// exempt from fault injection even in chaos mode.
		nw.arrive(to, d)
		return d.Bytes
	}
	nw.sendFaulty(to, d)
	return d.Bytes
}

// arrive hands a delivery the wire makes to the interceptor or to its
// link's FIFO. A closed network delivers nothing.
func (nw *Network) arrive(to int, d Delivery) {
	switch {
	case nw.closed:
	case nw.intercept != nil:
		nw.intercept(to, d)
	default:
		nw.Push(to, d)
	}
}

// Push appends d to the FIFO of the link from d.From to to, bypassing
// the interceptor: it is how the reliability sublayer hands on the
// deliveries it has put back in order.
func (nw *Network) Push(to int, d Delivery) {
	f := &nw.links[d.From*nw.n+to]
	f.Push(d)
	if f.n == 1 && nw.onHead != nil {
		nw.onHead(to, d)
	}
}

// Link returns the FIFO of the link from endpoint from to endpoint to.
// A reader may Peek at and Pop it directly.
func (nw *Network) Link(from, to int) *FIFO { return &nw.links[from*nw.n+to] }

// Recv returns the next delivery queued for proc, taking the links into
// proc lowest sender first; ok is false when none is queued. Recv never
// waits: every delivery comes from a Send or Forward, which has queued it
// by the time it returns.
func (nw *Network) Recv(proc int) (Delivery, bool) {
	for from := 0; from < nw.n; from++ {
		if d, ok := nw.links[from*nw.n+proc].Pop(); ok {
			return d, true
		}
	}
	return Delivery{}, false
}

// Close shuts the wire down: messages the fault injector was holding back
// for reordering are delivered, and later sends are charged but dropped.
// Recv goes on returning what is queued.
func (nw *Network) Close() {
	nw.flushHeld()
	nw.closed = true
}

// Closed reports whether Close has been called.
func (nw *Network) Closed() bool { return nw.closed }

// Stats returns a snapshot of the traffic counters.
func (nw *Network) Stats() Stats { return nw.stats }

// maxPooledBuf bounds the encode buffers kept for reuse, so one rare huge
// message (a release with a long check list) does not pin its buffer.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns an empty encode buffer from the pool. Append to *b
// (msg.AppendMarshal), store the result back in *b and hand b to putBuf
// once nothing reads it any more.
func getBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// putBuf returns b to the pool. The caller must not touch *b afterwards.
func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// FIFO is one link's queue of deliveries; the zero value is empty. The
// deliveries sit in a ring whose length is a power of two, doubled when
// full and otherwise reused, so its capacity follows the longest the queue
// has been, not the number of messages it has carried. Pop zeroes the slot
// it empties: a delivered message stays reachable only from its receiver.
type FIFO struct {
	ring []Delivery
	head int // index of the oldest delivery
	n    int // number of deliveries queued
}

// Push appends d.
func (f *FIFO) Push(d Delivery) {
	if f.n == len(f.ring) {
		grown := make([]Delivery, max(4, 2*len(f.ring)))
		k := copy(grown, f.ring[f.head:])
		copy(grown[k:], f.ring[:f.head])
		f.ring, f.head = grown, 0
	}
	f.ring[(f.head+f.n)&(len(f.ring)-1)] = d
	f.n++
}

// Peek returns the oldest delivery without removing it; nil when empty.
// The pointer is valid until the next Push or Pop.
func (f *FIFO) Peek() *Delivery {
	if f.n == 0 {
		return nil
	}
	return &f.ring[f.head]
}

// Pop removes and returns the oldest delivery; ok is false when empty.
func (f *FIFO) Pop() (Delivery, bool) {
	if f.n == 0 {
		return Delivery{}, false
	}
	d := f.ring[f.head]
	f.ring[f.head] = Delivery{}
	f.head = (f.head + 1) & (len(f.ring) - 1)
	f.n--
	return d, true
}

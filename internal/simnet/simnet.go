// Package simnet is the simulated interconnect of the DSM: one endpoint per
// process, unbounded FIFO delivery, and per-message-type traffic statistics.
//
// It substitutes for the paper's 155 Mbit ATM + UDP transport. Every send
// marshals the message to bytes and every delivery re-parses those bytes,
// so (a) no memory is ever shared between "processes" through a message,
// exactly as on a real wire, and (b) the byte counts behind the bandwidth
// results of Table 3 come from real encodings. Virtual transmission time is
// computed by the receiver from the sender's virtual send time and the
// byte count (see costmodel).
//
// The wire allocates only what the receiver keeps. Send encodes into a
// pooled buffer (GetBuf, msg.AppendMarshal) and returns it to the pool once
// Unmarshal has copied every field out; decoded interval records and their
// version vectors come from one slab per list, and a PageReply's page image
// from the page-frame pool (mem.GetFrame), to which the receiving DSM
// returns the frame it replaces. Send has serialized the message when it
// returns and keeps no reference to it — the contract dsm.Transport states
// — so a sender may pass live state. The inbox forgets each delivery it
// hands out.
//
// Forward is the one exception to "every delivery re-parses": it re-sends a
// message the caller received, charging the wire the bytes and fragments
// that message was serialized to once, and delivers the same decoded copy.
// The DSM forwards its barrier release this way, so a release is encoded
// and parsed once per epoch, not once per receiver; the receivers of a
// forwarded message share it and treat it as read-only.
package simnet

import (
	"errors"
	"fmt"
	"sync"

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

// Network connects n endpoints with unbounded queues. Delivery is
// reliable, ordered FIFO by default; SetFaults makes the wire lossy.
type Network struct {
	n  int
	in *inbox

	faults *FaultPlan
	links  []*faultLink // per ordered pair, indexed from*n+to; nil without faults

	// tel is where fault-injection events go; the zero Scope records
	// nothing. Set before traffic via SetTelemetry.
	tel telemetry.Scope

	mu      sync.Mutex
	stats   Stats
	started bool // first Send seen; SetTelemetry/SetFaults are sealed after this
}

// SetTelemetry scopes the network's fault-injection events (WireDrop /
// WireDup / WireReorder) to a specific recording session, so concurrent
// networks in one process record into their own Systems' recorders.
// It must be called before traffic starts.
func (nw *Network) SetTelemetry(tel telemetry.Scope) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.started {
		panic("simnet: SetTelemetry after traffic has started")
	}
	nw.tel = tel
}

// New returns a network with n endpoints, numbered 0..n-1.
func New(n int) *Network {
	return &Network{n: n, in: newInbox(n)}
}

// Size returns the number of endpoints.
func (nw *Network) Size() int { return nw.n }

// Send marshals m, accounts for it, and enqueues it at to, returning the
// wire size in bytes. vtime is the sender's virtual clock at the moment of
// sending. The message is re-parsed before delivery so sender and receiver
// never share memory, and Send keeps no reference to m once it returns.
func (nw *Network) Send(from, to int, m msg.Message, vtime int64) int {
	buf := GetBuf()
	wire := msg.AppendMarshal(*buf, m)
	parsed, err := msg.Unmarshal(wire)
	*buf = wire
	PutBuf(buf)
	if err != nil {
		panic(fmt.Sprintf("simnet: message %v does not survive the wire: %v", m.Type(), err))
	}
	frags := (len(wire) + DefaultMTU - 1) / DefaultMTU
	if frags < 1 {
		frags = 1
	}
	size := len(wire) + frags*UDPOverhead
	return nw.transmit(to, Delivery{From: from, VTime: vtime, Bytes: size, Frags: frags, Msg: parsed})
}

// Forward re-sends d, a delivery the caller has received, from endpoint
// from to endpoint to with the virtual send time vtime, and returns the
// wire size in bytes.
// The wire is charged exactly as Send would charge it — d.Bytes and
// d.Frags under d.Msg's type, and the same fault injection — but the
// message is neither encoded nor parsed again: to receives d.Msg itself.
// Every receiver of a forwarded message shares that one decoded copy, so
// each must treat it as read-only.
func (nw *Network) Forward(from, to int, d Delivery, vtime int64) int {
	return nw.transmit(to, Delivery{From: from, VTime: vtime, Bytes: d.Bytes, Frags: d.Frags, Msg: d.Msg})
}

// transmit accounts for d and enqueues it at to, through the fault
// injector unless it is a self-send, and returns its wire size.
func (nw *Network) transmit(to int, d Delivery) int {
	if to < 0 || to >= nw.n {
		panic(fmt.Sprintf("simnet: send to invalid endpoint %d", to))
	}
	t := d.Msg.Type()
	nw.mu.Lock()
	nw.started = true
	nw.stats.Messages[t] += int64(d.Frags)
	nw.stats.Bytes[t] += int64(d.Bytes)
	nw.mu.Unlock()

	if nw.faults == nil || d.From == to {
		// Self-sends never traverse the wire (loopback), so they are
		// exempt from fault injection even in chaos mode.
		nw.in.push(to, d)
		return d.Bytes
	}
	nw.sendFaulty(to, d)
	return d.Bytes
}

// Recv blocks until a message for proc arrives; ok is false after Close.
func (nw *Network) Recv(proc int) (Delivery, bool) {
	return nw.in.recv(proc)
}

// Next returns a delivery queued for any endpoint, and that endpoint. Every
// delivery comes from Send or Forward, so Next never waits: with nothing
// queued, nothing can arrive, and the error is ErrQuiet (ErrClosed after
// Close).
func (nw *Network) Next() (int, Delivery, error) {
	return nw.in.next()
}

// Close shuts down all endpoints; blocked Recv calls return ok=false after
// draining queued messages (including any the fault injector was still
// holding back for reordering).
func (nw *Network) Close() {
	nw.flushHeld()
	nw.in.close()
}

// Stats returns a snapshot of the traffic counters.
func (nw *Network) Stats() Stats {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.stats
}

// maxPooledBuf bounds the encode buffers kept for reuse, so one rare huge
// message (a release with a long check list) does not pin its buffer.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuf returns an empty encode buffer from the pool shared by the
// transports. Append to *b (msg.AppendMarshal), store the result back in *b
// and hand b to PutBuf once nothing reads it any more.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns b to the pool. The caller must not touch *b afterwards.
func PutBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// The errors Next reports when it returns no delivery.
var (
	// ErrClosed: the transport was shut down and everything queued has
	// been delivered.
	ErrClosed = errors.New("simnet: transport closed")
	// ErrQuiet: nothing is queued and nothing can arrive — every delivery
	// comes from Send or Forward, so only the caller's own next step can
	// queue one.
	ErrQuiet = errors.New("simnet: nothing queued and nothing in flight")
)

// inbox is the receive side of the endpoints: one FIFO of deliveries per
// endpoint under one lock, so a reader can take the next delivery of one
// endpoint (recv) or of any (next). Unbounded capacity keeps the protocol
// deadlock-free regardless of traffic bursts (real CVM relies on kernel
// socket buffering plus retransmission for the same property).
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond // broadcast on every push and close
	qs     []FIFO
	queued int // deliveries in qs
	closed bool
}

// newInbox returns an open inbox of n endpoints.
func newInbox(n int) *inbox {
	b := &inbox{qs: make([]FIFO, n)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// push queues d at endpoint to; after close it is a no-op.
func (b *inbox) push(to int, d Delivery) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.qs[to].Push(d)
		b.queued++
		b.cond.Broadcast()
	}
}

// recv blocks for endpoint to's next delivery; ok is false once the inbox
// is closed and that endpoint drained.
func (b *inbox) recv(to int) (Delivery, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.qs[to].n == 0 && !b.closed {
		b.cond.Wait()
	}
	d, ok := b.qs[to].Pop()
	if ok {
		b.queued--
	}
	return d, ok
}

// next returns a delivery queued for any endpoint, lowest endpoint first,
// each endpoint's in arrival order, and that endpoint. It never waits: with
// none queued it reports ErrClosed after close and ErrQuiet before.
func (b *inbox) next() (int, Delivery, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for to := 0; b.queued > 0 && to < len(b.qs); to++ {
		if d, ok := b.qs[to].Pop(); ok {
			b.queued--
			return to, d, nil
		}
	}
	if b.closed {
		return -1, Delivery{}, ErrClosed
	}
	return -1, Delivery{}, ErrQuiet
}

// close shuts every endpoint: readers drain what is queued, then return.
func (b *inbox) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.cond.Broadcast()
}

// FIFO is one endpoint's queue of deliveries; the zero value is empty. The
// deliveries sit in a ring that doubles when full and is otherwise reused,
// so its capacity follows the longest the queue has been, not the number of
// messages it has carried. Pop zeroes the slot it empties: a delivered
// message stays reachable only from its receiver.
type FIFO struct {
	ring []Delivery
	head int // index of the oldest delivery
	n    int // number of deliveries queued
}

// Push appends d.
func (f *FIFO) Push(d Delivery) {
	if f.n == len(f.ring) {
		grown := make([]Delivery, max(16, 2*len(f.ring)))
		k := copy(grown, f.ring[f.head:])
		copy(grown[k:], f.ring[:f.head])
		f.ring, f.head = grown, 0
	}
	f.ring[(f.head+f.n)%len(f.ring)] = d
	f.n++
}

// Pop removes and returns the oldest delivery; ok is false when empty.
func (f *FIFO) Pop() (Delivery, bool) {
	if f.n == 0 {
		return Delivery{}, false
	}
	d := f.ring[f.head]
	f.ring[f.head] = Delivery{}
	f.head = (f.head + 1) % len(f.ring)
	f.n--
	return d, true
}

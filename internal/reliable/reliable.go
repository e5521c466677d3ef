// Package reliable is the CVM-style end-to-end reliability sublayer: a
// transport wrapper that restores the reliable, per-link-FIFO delivery
// contract the DSM protocol assumes on top of a lossy wire (internal/simnet
// with a FaultPlan).
//
// The paper's CVM runs over raw UDP and supplies its own retransmission;
// this package plays that role. Each directed link carries a stream of
// sequence-numbered RelData envelopes. The receiver delivers them in
// sequence order (buffering out-of-order arrivals, suppressing duplicates)
// and acknowledges cumulatively — piggybacked on reverse-direction data
// where possible, or by a pure RelAck otherwise. The sender retransmits
// unacknowledged envelopes on a timeout with exponential backoff up to a
// retry cap.
//
// The layer is a single-threaded state machine: it has no goroutine, timer
// or lock, and no queue of its own. It sits between the wire and the link
// FIFOs (simnet.Network.Intercept): each envelope is handled the moment the
// wire delivers it, and what it carries in sequence goes straight into its
// link's FIFO. The one thing it defers is a pure acknowledgment a receiver
// owes: Flush sends those, and the DSM scheduler calls it wherever it
// takes stock of what is queued, so a sender's run of sends is never
// interleaved with the acknowledgments they provoke. Each link keeps its
// retransmission and delayed-acknowledgment deadlines in virtual
// nanoseconds on the layer's own clock, which moves only when Advance
// fires the earliest of them. The DSM scheduler calls Advance when nothing
// is runnable and nothing is queued — the moment a real network sits idle
// until a timer goes off — so every retry and every link death happens in
// one deterministic order, with no real-time wait. A retransmission keeps
// its original send's virtual time, so retrying moves no process's clock.
//
// Stats accounting stays honest for the paper's bandwidth tables: every
// data envelope (first transmission and every retransmission) is charged
// to the wrapped message's own type, including envelope and datagram
// overhead, and pure acknowledgments are charged under msg.TRelAck — so
// TotalBytes is exactly what crossed the wire.
package reliable

import (
	"fmt"
	"time"

	"lrcrace/internal/msg"
	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"
)

// The retransmission timeout starts at RTO and doubles on every expiry up
// to MaxRTO; a link whose envelopes stay unacknowledged through MaxRetries
// consecutive expiries is dead. A receiver owes an immediate pure RelAck
// after ackEvery deliveries without reverse traffic; otherwise it waits
// ackDelay for reverse traffic to piggyback on, which leaves the
// acknowledgment time to beat the sender's retransmission. All of these are
// virtual durations: they order the deadlines, and nothing waits for them.
const (
	RTO        = 2 * time.Millisecond
	MaxRTO     = 100 * time.Millisecond
	MaxRetries = 15

	backoff  = 2
	ackEvery = 4
	ackDelay = RTO / 4
)

// Config wires the sublayer to its owner.
type Config struct {
	// OnLinkDead, when non-nil, is told which link exhausted MaxRetries,
	// before the transport shuts down. The crash-recovery layer uses it to
	// mark the unreachable peer as a crash suspect.
	OnLinkDead func(from, to int)

	// Telemetry is where retransmission and link-death events go; the zero
	// Scope records nothing. The DSM layer binds it to the owning System's
	// recorder, so concurrent transports stay isolated.
	Telemetry telemetry.Scope
}

// Transport implements dsm.Transport over the simulated network, which a
// FaultPlan may make lossy. Every delivery on that wire comes from a Send,
// so with nothing queued and no deadline pending nothing is in flight. It
// is not safe for concurrent use.
type Transport struct {
	inner *simnet.Network
	n     int
	cfg   Config

	send []sendLink // [from*n+to]
	recv []recvLink // [at*n+from]
	owed []owedAck  // pure acknowledgments due since the last Flush, in the order they fell due
	now  int64      // virtual ns: the deadline Advance fired last

	st     simnet.Stats
	closed bool
	killed []bool // endpoints taken down by KillEndpoint
}

// Wrap builds the reliability sublayer over inner for n endpoints.
func Wrap(inner *simnet.Network, n int, cfg Config) *Transport {
	t := &Transport{
		inner:  inner,
		n:      n,
		cfg:    cfg,
		send:   make([]sendLink, n*n),
		recv:   make([]recvLink, n*n),
		killed: make([]bool, n),
	}
	for i := range t.send {
		t.send[i].nextSeq = 1
		t.recv[i].expected = 1
	}
	inner.Intercept(t.receive)
	return t
}

// sendLink is the sender half of one directed link.
type sendLink struct {
	nextSeq uint32
	unacked []outPacket // in sequence order
	due     int64       // retransmission deadline; 0 while nothing is unacked
	rto     int64
	retries int
}

// outPacket is one transmitted-but-unacknowledged envelope.
type outPacket struct {
	seq     uint32
	payload []byte // marshaled inner message
	typ     msg.Type
	vtime   int64
}

// recvLink is the receiver half of one directed link.
type recvLink struct {
	expected uint32              // next in-order sequence number
	ooo      map[uint32]oooEntry // out-of-order arrivals; nil until the first
	ackOwed  int
	ackDue   int64 // delayed-acknowledgment deadline; 0 when none is owed
}

// oooEntry is an out-of-order arrival buffered for resequencing.
type oooEntry struct {
	d       simnet.Delivery
	payload []byte
}

// owedAck is a pure acknowledgment of at's position on the stream from
// peer, fallen due and not yet sent.
type owedAck struct {
	at, peer int
	ack      uint32
}

func (t *Transport) count(typ msg.Type, wire int) {
	t.st.Messages[typ]++
	t.st.Bytes[typ] += int64(wire)
}

// Send implements dsm.Transport: wrap m in a sequence-numbered envelope
// with a piggybacked cumulative ACK, transmit it, and arm the link's
// retransmission deadline. The envelope carries m marshaled, the bytes a
// retransmission resends, so the receiver gets a copy that deliver decodes
// once. Self-sends bypass the sublayer (loopback cannot lose messages) and
// hand m itself over, as the wire does.
func (t *Transport) Send(from, to int, m msg.Message, vtime int64) int {
	if t.killed[from] {
		// A crashed process sends nothing; the caller is a coroutine that
		// has not yet observed its own death.
		return 0
	}
	if from == to {
		wire := t.inner.Send(from, to, m, vtime)
		t.count(m.Type(), wire)
		return wire
	}
	sl, rl := &t.send[from*t.n+to], &t.recv[from*t.n+to]
	seq := sl.nextSeq
	sl.nextSeq++
	payload := msg.Marshal(m)
	wire := t.inner.Send(from, to, &msg.RelData{Seq: seq, Ack: rl.expected - 1, Payload: payload}, vtime)
	sl.unacked = append(sl.unacked, outPacket{seq: seq, payload: payload, typ: m.Type(), vtime: vtime})
	if sl.due == 0 {
		sl.rto = int64(RTO)
		sl.due = t.now + sl.rto
	}
	// The envelope carried a cumulative ACK for the reverse direction,
	// discharging any pure-ack obligation.
	rl.ackOwed, rl.ackDue = 0, 0
	t.count(m.Type(), wire)
	return wire
}

// Forward implements dsm.Transport. A data envelope carries the payload's
// bytes for retransmission anyway, so forwarding the received message d is
// sending it again.
func (t *Transport) Forward(from, to int, d simnet.Delivery, vtime int64) int {
	return t.Send(from, to, d.Msg, vtime)
}

// receive handles one delivery the wire makes at at.
func (t *Transport) receive(at int, d simnet.Delivery) {
	if t.killed[at] {
		return // a crashed host hears nothing
	}
	switch m := d.Msg.(type) {
	case *msg.RelData:
		t.ack(at, d.From, m.Ack)
		t.data(at, d, m)
	case *msg.RelAck:
		t.ack(at, d.From, m.Ack)
	default:
		t.inner.Push(at, d) // self-sends pass through
	}
}

// ack applies a cumulative acknowledgment from peer to at's stream to it.
func (t *Transport) ack(at, peer int, ack uint32) {
	sl := &t.send[at*t.n+peer]
	k := 0
	for k < len(sl.unacked) && sl.unacked[k].seq <= ack {
		k++
	}
	if k == 0 {
		return
	}
	n := copy(sl.unacked, sl.unacked[k:])
	clear(sl.unacked[n:])
	sl.unacked = sl.unacked[:n]
	sl.retries, sl.rto, sl.due = 0, int64(RTO), 0
	if n > 0 {
		sl.due = t.now + sl.rto
	}
}

// data processes one arriving envelope at at: resequence, dedup, deliver,
// and schedule the acknowledgment.
func (t *Transport) data(at int, d simnet.Delivery, m *msg.RelData) {
	rl := &t.recv[at*t.n+d.From]
	switch {
	case m.Seq == rl.expected:
		t.deliver(at, d, m.Payload)
		rl.expected++
		for e, ok := rl.ooo[rl.expected]; ok; e, ok = rl.ooo[rl.expected] {
			delete(rl.ooo, rl.expected)
			t.deliver(at, e.d, e.payload)
			rl.expected++
		}
		if rl.ackOwed++; rl.ackOwed >= ackEvery {
			t.owe(at, d.From)
			return
		}
	case m.Seq > rl.expected:
		if _, dup := rl.ooo[m.Seq]; dup {
			t.st.Deduped++
		} else {
			if rl.ooo == nil {
				rl.ooo = map[uint32]oooEntry{}
			}
			rl.ooo[m.Seq] = oooEntry{d: d, payload: m.Payload}
		}
		// A gap means something was lost or reordered: the sender must
		// hear our cumulative position even without reverse traffic.
	default:
		// Duplicate of an already-delivered envelope: a retransmission
		// that crossed our ACK, or a wire-level duplicate. Re-ack at once
		// so the sender stands down.
		t.st.Deduped++
		t.owe(at, d.From)
		return
	}
	if rl.ackDue == 0 {
		rl.ackDue = t.now + int64(ackDelay)
	}
}

// deliver decodes the payload, the one decode a message sent over the
// sublayer gets, into its link's FIFO, keeping the envelope's wire
// metadata (so the virtual cost model charges the arrival exactly as the
// unwrapped transport would).
func (t *Transport) deliver(at int, d simnet.Delivery, payload []byte) {
	inner, err := msg.Unmarshal(payload)
	if err != nil {
		// Cannot happen over simnet: the payload is msg.Marshal's output,
		// and the wire hands the envelope over unchanged. Count and drop
		// rather than wedge the protocol.
		t.st.Errors++
		return
	}
	d.Msg = inner
	t.inner.Push(at, d)
}

// owe notes that at owes peer a pure acknowledgment of its current
// position on the stream from peer; Flush sends it.
func (t *Transport) owe(at, peer int) {
	rl := &t.recv[at*t.n+peer]
	t.owed = append(t.owed, owedAck{at, peer, rl.expected - 1})
	rl.ackOwed, rl.ackDue = 0, 0
}

// Flush sends every pure acknowledgment owed, in the order they fell due,
// and those their arrival makes due in turn, and reports whether there was
// any.
func (t *Transport) Flush() bool {
	if len(t.owed) == 0 {
		return false
	}
	for i := 0; i < len(t.owed); i++ {
		a := t.owed[i]
		wire := t.inner.Send(a.at, a.peer, &msg.RelAck{Ack: a.ack}, 0)
		t.count(msg.TRelAck, wire)
	}
	t.owed = t.owed[:0]
	return true
}

// Advance makes the sublayer progress with nothing else to do: it sends
// the acknowledgments owed or, with none, fires the earliest pending
// deadline — a delayed acknowledgment before a retransmission due at the
// same instant, a lower link before a higher one. It reports whether it
// did anything; false means nothing is in flight and nothing will be
// retried, so a reader still waiting waits forever.
func (t *Transport) Advance() bool {
	if t.Flush() {
		return true
	}
	if t.closed {
		return false
	}
	best, isAck, due := -1, false, int64(0)
	for i := range t.recv {
		if d := t.recv[i].ackDue; d != 0 && (best < 0 || d < due) {
			best, isAck, due = i, true, d
		}
	}
	for i := range t.send {
		if d := t.send[i].due; d != 0 && (best < 0 || d < due) {
			best, isAck, due = i, false, d
		}
	}
	if best < 0 {
		return false
	}
	t.now = due
	if isAck {
		t.owe(best/t.n, best%t.n)
		t.Flush()
	} else {
		t.retransmit(best/t.n, best%t.n)
	}
	return true
}

// retransmit fires one link's retransmission deadline: resend every
// unacknowledged envelope (with a fresh piggybacked ACK) and back off, or
// give the link up after MaxRetries consecutive silent rounds.
func (t *Transport) retransmit(from, to int) {
	sl := &t.send[from*t.n+to]
	sl.retries++
	if sl.retries > MaxRetries {
		sl.due = 0
		first := sl.unacked[0]
		t.cfg.Telemetry.Emit(from, telemetry.KLinkDead, first.vtime,
			int64(to), int64(len(sl.unacked)), MaxRetries)
		t.st.Errors++
		t.cfg.Telemetry.Trip(telemetry.TripLinkDead,
			fmt.Sprintf("reliable: link %d->%d dead after %d retries (%d unacked, first %v seq %d)",
				from, to, MaxRetries, len(sl.unacked), first.typ, first.seq))
		if h := t.cfg.OnLinkDead; h != nil {
			h(from, to)
		}
		t.Close()
		return
	}
	ack := t.recv[from*t.n+to].expected - 1
	for _, p := range sl.unacked {
		wire := t.inner.Send(from, to, &msg.RelData{Seq: p.seq, Ack: ack, Payload: p.payload}, p.vtime)
		t.count(p.typ, wire)
		t.st.Retransmits++
		t.st.RetransBytes += int64(wire)
	}
	t.cfg.Telemetry.Emit(from, telemetry.KRetransmit, sl.unacked[0].vtime,
		int64(to), int64(len(sl.unacked)), int64(sl.retries))
	sl.rto = min(sl.rto*backoff, int64(MaxRTO))
	sl.due = t.now + sl.rto
}

// Recv returns proc's next resequenced delivery (simnet.Network.Recv),
// advancing the sublayer (see Advance) until there is one; ok is false
// once none can come. It never waits in real time.
func (t *Transport) Recv(proc int) (simnet.Delivery, bool) {
	for {
		t.Flush()
		if d, ok := t.inner.Recv(proc); ok {
			return d, true
		}
		if !t.Advance() {
			return simnet.Delivery{}, false
		}
	}
}

// KillEndpoint simulates a process crash at proc: the victim stops
// sending (retransmissions included) and acknowledging, and what still
// reaches it is dropped. Links from survivors TO the victim keep their
// retransmission deadlines on purpose — their exhaustion is how the
// survivors detect the death (OnLinkDead).
func (t *Transport) KillEndpoint(proc int) {
	t.killed[proc] = true
	for peer := 0; peer < t.n; peer++ {
		sl := &t.send[proc*t.n+peer]
		clear(sl.unacked)
		sl.unacked, sl.due = sl.unacked[:0], 0
		t.recv[proc*t.n+peer].ackDue = 0
	}
}

// Close stops the sublayer: no deadline fires any more, and the wire shuts
// down (simnet.Network.Close). What is queued stays queued.
func (t *Transport) Close() {
	if !t.closed {
		t.closed = true
		t.inner.Close()
	}
}

// Stats implements dsm.Transport. Messages/Bytes are the sublayer's own
// accounting (per wrapped message type, retransmissions included, pure
// acknowledgments under msg.TRelAck); the wire-level fault counters come
// from the inner transport. The inner transport's own Messages/Bytes (all
// under TRelData/TRelAck) are deliberately not merged — they would double
// count.
func (t *Transport) Stats() simnet.Stats {
	st := t.st
	in := t.inner.Stats()
	st.Dropped = in.Dropped
	st.Duplicated = in.Duplicated
	st.Reordered = in.Reordered
	st.Errors += in.Errors
	return st
}

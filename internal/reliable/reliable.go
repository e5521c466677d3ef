// Package reliable is the CVM-style end-to-end reliability sublayer: a
// transport wrapper that restores the reliable, per-link-FIFO delivery
// contract the DSM protocol assumes on top of a lossy wire (internal/simnet
// with a FaultPlan, or any other transport that may drop, duplicate, or
// reorder messages).
//
// The paper's CVM runs over raw UDP and supplies its own retransmission;
// this package plays that role. Each directed link carries a stream of
// sequence-numbered RelData envelopes. The receiver delivers them in
// sequence order (buffering out-of-order arrivals, suppressing duplicates)
// and acknowledges cumulatively — piggybacked on reverse-direction data
// where possible, or by a delayed pure RelAck otherwise. The sender
// retransmits unacknowledged envelopes on a timeout with exponential
// backoff up to a retry cap.
//
// Stats accounting stays honest for the paper's bandwidth tables: every
// data envelope (first transmission and every retransmission) is charged
// to the wrapped message's own type, including envelope and datagram
// overhead, and pure acknowledgments are charged under msg.TRelAck — so
// TotalBytes is exactly what crossed the wire.
package reliable

import (
	"fmt"
	"sync"
	"time"

	"lrcrace/internal/msg"
	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"
)

// Inner is the transport being wrapped (dsm.Transport minus Next; both
// simnet.Network and tcpnet.Network satisfy it).
type Inner interface {
	Send(from, to int, m msg.Message, vtime int64) int
	Recv(proc int) (simnet.Delivery, bool)
	Close()
	Stats() simnet.Stats
}

// The retransmission timeout doubles after every timer expiry. A receiver
// owes an immediate pure RelAck after ackEvery deliveries without reverse
// traffic; otherwise it waits a quarter of the initial RTO (RTO/ackDelayDiv)
// for reverse traffic to piggyback on before sending one, which leaves the
// acknowledgment time to beat the sender's retransmission timer.
const (
	backoff     = 2
	ackEvery    = 4
	ackDelayDiv = 4
)

// Config tunes the reliability timers. The zero value selects defaults
// sized for in-process tests: fast enough that a 10% drop rate costs
// milliseconds, slow enough that acknowledgments usually win the race
// against the retransmission timer.
type Config struct {
	// RTO is the initial retransmission timeout (default 2ms).
	RTO time.Duration
	// MaxRTO caps the backed-off timeout (default 100ms).
	MaxRTO time.Duration
	// MaxRetries is the number of consecutive unacknowledged
	// retransmission rounds on one link before the link is declared dead
	// and the transport shuts down (default 15).
	MaxRetries int
	// OnLinkDead, when non-nil, is called (once per link, off the timer
	// goroutine) when a link exhausts MaxRetries instead of shutting the
	// whole transport down. The owner decides what dies: the crash-recovery
	// layer uses this to mark the unreachable peer as a crash suspect and
	// tear the run down for coordinated rollback.
	OnLinkDead func(from, to int)

	// Telemetry is where retransmission and link-death events go; the zero
	// Scope records nothing. The DSM layer binds it to the owning System's
	// recorder, so concurrent transports stay isolated.
	Telemetry telemetry.Scope
}

func (c Config) withDefaults() Config {
	if c.RTO <= 0 {
		c.RTO = 2 * time.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 100 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 15
	}
	return c
}

// Transport implements dsm.Transport over an unreliable Inner.
type Transport struct {
	inner Inner
	n     int
	cfg   Config

	out  *simnet.Inbox // resequenced deliveries, one queue per endpoint
	send []*sendLink   // [from*n+to]
	recv []*recvLink   // [at*n+from]

	mu     sync.Mutex
	st     simnet.Stats
	closed bool
	killed []bool // endpoints taken down by KillEndpoint

	wg sync.WaitGroup
	// timers counts timer callbacks in flight (see enter); Close waits for
	// it to drain, so no callback emits telemetry after Close returns.
	timers sync.WaitGroup
}

// Wrap builds the reliability sublayer over inner for n endpoints and
// starts the per-endpoint demux pumps.
func Wrap(inner Inner, n int, cfg Config) *Transport {
	t := &Transport{
		inner:  inner,
		n:      n,
		cfg:    cfg.withDefaults(),
		out:    simnet.NewInbox(n, true),
		send:   make([]*sendLink, n*n),
		recv:   make([]*recvLink, n*n),
		killed: make([]bool, n),
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			t.send[from*n+to] = &sendLink{t: t, from: from, to: to, nextSeq: 1, rto: t.cfg.RTO}
			t.recv[from*n+to] = &recvLink{t: t, at: from, from: to, expected: 1, ooo: map[uint32]oooEntry{}}
		}
	}
	for i := 0; i < n; i++ {
		t.wg.Add(1)
		go t.pump(i)
	}
	return t
}

// sendLink is the sender half of one directed link.
type sendLink struct {
	t        *Transport
	from, to int

	mu      sync.Mutex
	nextSeq uint32
	unacked []outPacket
	timer   *time.Timer
	rto     time.Duration
	retries int
	dead    bool
}

// outPacket is one transmitted-but-unacknowledged envelope.
type outPacket struct {
	seq     uint32
	payload []byte // marshaled inner message
	typ     msg.Type
	vtime   int64
}

// recvLink is the receiver half of one directed link: at receives the
// stream from from.
type recvLink struct {
	t        *Transport
	at, from int

	mu       sync.Mutex
	expected uint32 // next in-order sequence number
	ooo      map[uint32]oooEntry
	ackOwed  int
	ackTimer *time.Timer
}

// oooEntry is an out-of-order arrival buffered for resequencing.
type oooEntry struct {
	d       simnet.Delivery
	payload []byte
}

// enter admits a timer callback unless the transport is closed; an
// admitted callback calls t.timers.Done when it finishes. Every Add happens
// under t.mu before closed is set, so Close's Wait sees all of them.
func (t *Transport) enter() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.timers.Add(1)
	return true
}

func (t *Transport) bumpStats(f func(st *simnet.Stats)) {
	t.mu.Lock()
	f(&t.st)
	t.mu.Unlock()
}

// Send implements dsm.Transport: wrap m in a sequence-numbered envelope
// with a piggybacked cumulative ACK and transmit it, arming the
// retransmission timer. Self-sends bypass the sublayer (loopback cannot
// lose messages).
func (t *Transport) Send(from, to int, m msg.Message, vtime int64) int {
	t.mu.Lock()
	fromDead := t.killed[from]
	t.mu.Unlock()
	if fromDead {
		// A crashed process sends nothing; the caller is a goroutine that
		// has not yet observed its own death.
		return 0
	}
	if from == to {
		wire := t.inner.Send(from, to, m, vtime)
		t.bumpStats(func(st *simnet.Stats) {
			st.Messages[m.Type()]++
			st.Bytes[m.Type()] += int64(wire)
		})
		return wire
	}

	sl := t.send[from*t.n+to]
	rl := t.recv[from*t.n+to] // reverse stream (to→from) ack state

	sl.mu.Lock()
	seq := sl.nextSeq
	sl.nextSeq++
	payload := msg.Marshal(m)
	env := &msg.RelData{Seq: seq, Ack: rl.cumAck(), Payload: payload}
	wire := t.inner.Send(from, to, env, vtime)
	sl.unacked = append(sl.unacked, outPacket{seq: seq, payload: payload, typ: m.Type(), vtime: vtime})
	if sl.timer == nil {
		sl.rto = t.cfg.RTO
		sl.timer = time.AfterFunc(sl.rto, sl.onTimeout)
	}
	sl.mu.Unlock()

	// The envelope carried a cumulative ACK for the reverse direction:
	// cancel any pending pure-ack obligation it just satisfied.
	rl.ackPiggybacked()

	t.bumpStats(func(st *simnet.Stats) {
		st.Messages[m.Type()]++
		st.Bytes[m.Type()] += int64(wire)
	})
	return wire
}

// onTimeout is the retransmission timer: resend every unacknowledged
// envelope (with a fresh piggybacked ACK), back off, and give up on the
// link after MaxRetries consecutive silent rounds.
func (sl *sendLink) onTimeout() {
	t := sl.t
	if !t.enter() {
		return
	}
	if sl.retransmit() {
		// Leave the count before shutting anything down: the link-dead
		// handler and Close both end in Close, which waits for it.
		t.timers.Done()
		if h := t.cfg.OnLinkDead; h != nil {
			h(sl.from, sl.to)
		} else {
			t.Close()
		}
		return
	}
	t.timers.Done()
}

// retransmit is onTimeout's body; it reports whether the link just died.
func (sl *sendLink) retransmit() (dead bool) {
	t := sl.t
	sl.mu.Lock()
	if sl.dead || len(sl.unacked) == 0 {
		sl.timer = nil
		sl.mu.Unlock()
		return false
	}
	sl.retries++
	if sl.retries > t.cfg.MaxRetries {
		sl.dead = true
		sl.timer = nil
		nun := len(sl.unacked)
		first := sl.unacked[0]
		sl.mu.Unlock()
		t.cfg.Telemetry.Emit(sl.from, telemetry.KLinkDead, first.vtime,
			int64(sl.to), int64(nun), int64(t.cfg.MaxRetries))
		t.bumpStats(func(st *simnet.Stats) { st.Errors++ })
		t.cfg.Telemetry.Trip(telemetry.TripLinkDead,
			fmt.Sprintf("reliable: link %d->%d dead after %d retries (%d unacked, first %v seq %d)",
				sl.from, sl.to, t.cfg.MaxRetries, nun, first.typ, first.seq))
		return true
	}
	rl := t.recv[sl.from*t.n+sl.to]
	ack := rl.cumAck()
	var resentBytes int64
	for _, p := range sl.unacked {
		wire := t.inner.Send(sl.from, sl.to, &msg.RelData{Seq: p.seq, Ack: ack, Payload: p.payload}, p.vtime)
		resentBytes += int64(wire)
		typ := p.typ
		t.bumpStats(func(st *simnet.Stats) {
			st.Messages[typ]++
			st.Bytes[typ] += int64(wire)
			st.Retransmits++
			st.RetransBytes += int64(wire)
		})
	}
	t.cfg.Telemetry.Emit(sl.from, telemetry.KRetransmit, sl.unacked[0].vtime,
		int64(sl.to), int64(len(sl.unacked)), int64(sl.retries))
	if sl.rto *= backoff; sl.rto > t.cfg.MaxRTO {
		sl.rto = t.cfg.MaxRTO
	}
	sl.timer.Reset(sl.rto)
	sl.mu.Unlock()
	return false
}

// handleAck applies a cumulative acknowledgment to the link.
func (sl *sendLink) handleAck(ack uint32) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	progress := false
	kept := sl.unacked[:0]
	for _, p := range sl.unacked {
		if p.seq <= ack {
			progress = true
		} else {
			kept = append(kept, p)
		}
	}
	sl.unacked = kept
	if !progress {
		return
	}
	sl.retries = 0
	sl.rto = sl.t.cfg.RTO
	if sl.timer != nil {
		if len(sl.unacked) == 0 {
			sl.timer.Stop()
			sl.timer = nil
		} else {
			sl.timer.Reset(sl.rto)
		}
	}
}

// stop kills the link's timer at shutdown.
func (sl *sendLink) stop() {
	sl.mu.Lock()
	sl.dead = true
	if sl.timer != nil {
		sl.timer.Stop()
		sl.timer = nil
	}
	sl.mu.Unlock()
}

// cumAck returns the cumulative acknowledgment for the stream this link
// receives: every sequence number up to and including it has been
// delivered.
func (rl *recvLink) cumAck() uint32 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.expected - 1
}

// ackPiggybacked notes that an outgoing data envelope just carried our
// cumulative ACK, discharging any pending pure-ack obligation.
func (rl *recvLink) ackPiggybacked() {
	rl.mu.Lock()
	rl.ackOwed = 0
	if rl.ackTimer != nil {
		rl.ackTimer.Stop()
		rl.ackTimer = nil
	}
	rl.mu.Unlock()
}

// handleData processes one arriving envelope: resequence, dedup, deliver,
// and schedule acknowledgment.
func (rl *recvLink) handleData(d simnet.Delivery, m *msg.RelData) {
	t := rl.t
	rl.mu.Lock()
	switch {
	case m.Seq == rl.expected:
		rl.deliverLocked(d, m.Payload)
		rl.expected++
		for {
			e, ok := rl.ooo[rl.expected]
			if !ok {
				break
			}
			delete(rl.ooo, rl.expected)
			rl.deliverLocked(e.d, e.payload)
			rl.expected++
		}
		rl.ackOwed++
		if rl.ackOwed >= ackEvery {
			rl.sendPureAckLocked()
		} else if rl.ackTimer == nil {
			rl.ackTimer = time.AfterFunc(t.cfg.RTO/ackDelayDiv, rl.onAckDelay)
		}
	case m.Seq > rl.expected:
		if _, dup := rl.ooo[m.Seq]; dup {
			t.bumpStats(func(st *simnet.Stats) { st.Deduped++ })
		} else {
			rl.ooo[m.Seq] = oooEntry{d: d, payload: m.Payload}
		}
		// A gap means something was lost or reordered; make sure the
		// sender hears our cumulative position soon even without reverse
		// traffic.
		if rl.ackTimer == nil {
			rl.ackTimer = time.AfterFunc(t.cfg.RTO/ackDelayDiv, rl.onAckDelay)
		}
	default:
		// Duplicate of an already-delivered envelope: the retransmission
		// that raced our ACK (or a wire-level duplicate). Re-ack
		// immediately so the sender's timer stands down.
		t.bumpStats(func(st *simnet.Stats) { st.Deduped++ })
		rl.sendPureAckLocked()
	}
	rl.mu.Unlock()
}

// deliverLocked unwraps the payload and hands it to the endpoint's
// delivery queue, preserving the original wire metadata (so the virtual
// cost model charges the arrival exactly as the unwrapped transport
// would).
func (rl *recvLink) deliverLocked(d simnet.Delivery, payload []byte) {
	inner, err := msg.Unmarshal(payload)
	if err != nil {
		// Cannot happen over simnet/tcpnet (payloads round-trip before
		// send); count and drop rather than wedge the protocol.
		rl.t.bumpStats(func(st *simnet.Stats) { st.Errors++ })
		return
	}
	rl.t.out.Push(rl.at, simnet.Delivery{
		From:  d.From,
		VTime: d.VTime,
		Bytes: d.Bytes,
		Frags: d.Frags,
		Msg:   inner,
	})
}

// onAckDelay fires when no reverse traffic appeared to piggyback on.
func (rl *recvLink) onAckDelay() {
	if !rl.t.enter() {
		return
	}
	defer rl.t.timers.Done()
	rl.mu.Lock()
	rl.ackTimer = nil
	rl.sendPureAckLocked()
	rl.mu.Unlock()
}

// sendPureAckLocked emits a pure RelAck with the current cumulative
// position.
func (rl *recvLink) sendPureAckLocked() {
	t := rl.t
	t.mu.Lock()
	atDead := t.killed[rl.at]
	t.mu.Unlock()
	if atDead {
		// A crashed process acknowledges nothing — this silence is what
		// drives the survivors' links to retry-cap exhaustion.
		return
	}
	wire := t.inner.Send(rl.at, rl.from, &msg.RelAck{Ack: rl.expected - 1}, 0)
	rl.ackOwed = 0
	if rl.ackTimer != nil {
		rl.ackTimer.Stop()
		rl.ackTimer = nil
	}
	t.bumpStats(func(st *simnet.Stats) {
		st.Messages[msg.TRelAck]++
		st.Bytes[msg.TRelAck] += int64(wire)
	})
}

// stop kills the link's ack timer at shutdown.
func (rl *recvLink) stop() {
	rl.mu.Lock()
	if rl.ackTimer != nil {
		rl.ackTimer.Stop()
		rl.ackTimer = nil
	}
	rl.mu.Unlock()
}

// pump is the per-endpoint demux: it drains the inner transport,
// processes reliability envelopes, and forwards resequenced deliveries.
func (t *Transport) pump(at int) {
	defer t.wg.Done()
	for {
		d, ok := t.inner.Recv(at)
		if !ok {
			return
		}
		switch m := d.Msg.(type) {
		case *msg.RelData:
			t.send[at*t.n+d.From].handleAck(m.Ack)
			t.recv[at*t.n+d.From].handleData(d, m)
		case *msg.RelAck:
			t.send[at*t.n+d.From].handleAck(m.Ack)
		default:
			// Self-sends (and any non-enveloped traffic) pass through.
			t.out.Push(at, d)
		}
	}
}

// Recv blocks for proc's next resequenced delivery; ok is false after
// Close.
func (t *Transport) Recv(proc int) (simnet.Delivery, bool) {
	return t.out.Recv(proc)
}

// Next implements dsm.Transport. Deliveries come from the pumps and timers,
// real-time sources, so Next waits for them (see simnet.Inbox.Next).
func (t *Transport) Next(wait time.Duration) (int, simnet.Delivery, error) {
	return t.out.Next(wait)
}

// KillEndpoint simulates a process crash at proc: the victim stops
// sending (including retransmissions) and acknowledging; what still reaches
// it is the crashed receiver's to ignore. Links from survivors TO the
// victim are left running on purpose — their retransmission timers are
// exactly how the survivors detect the death (retry-cap exhaustion →
// OnLinkDead).
func (t *Transport) KillEndpoint(proc int) {
	t.mu.Lock()
	if t.closed || t.killed[proc] {
		t.mu.Unlock()
		return
	}
	t.killed[proc] = true
	t.mu.Unlock()

	// Silence the victim's own sender halves: a dead host neither sends
	// new data nor retransmits old.
	for to := 0; to < t.n; to++ {
		t.send[proc*t.n+to].stop()
	}
	// And its receiver halves' ack timers: a dead host acknowledges
	// nothing, which is what starves the survivors' links into timeout.
	for from := 0; from < t.n; from++ {
		t.recv[proc*t.n+from].stop()
	}
}

// Close implements dsm.Transport: stop timers, wait for the callbacks
// already running, shut the inner transport, and wait for the pumps to
// drain.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.mu.Unlock()

	for _, sl := range t.send {
		sl.stop()
	}
	for _, rl := range t.recv {
		rl.stop()
	}
	t.timers.Wait()
	t.inner.Close()
	t.wg.Wait()
	t.out.Close()
}

// Stats implements dsm.Transport. Messages/Bytes are the sublayer's own
// accounting (per wrapped message type, retransmissions included, pure
// acknowledgments under msg.TRelAck); the wire-level fault counters come
// from the inner transport. The inner transport's own Messages/Bytes (all
// under TRelData/TRelAck) are deliberately not merged — they would double
// count.
func (t *Transport) Stats() simnet.Stats {
	t.mu.Lock()
	st := t.st
	t.mu.Unlock()
	in := t.inner.Stats()
	st.Dropped = in.Dropped
	st.Duplicated = in.Duplicated
	st.Reordered = in.Reordered
	st.Errors += in.Errors
	return st
}

// String describes the configuration (debug aid).
func (t *Transport) String() string {
	return fmt.Sprintf("reliable{n=%d rto=%v maxRTO=%v maxRetries=%d}", t.n, t.cfg.RTO, t.cfg.MaxRTO, t.cfg.MaxRetries)
}

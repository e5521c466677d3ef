package reliable

import (
	"reflect"
	"testing"

	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/simnet"
	"lrcrace/internal/vc"
)

func wrapFaulty(t *testing.T, n int, plan *simnet.FaultPlan) *Transport {
	t.Helper()
	nw := simnet.New(n)
	if plan != nil {
		if err := nw.SetFaults(plan); err != nil {
			t.Fatal(err)
		}
	}
	return Wrap(nw, n, Config{})
}

func TestReliableNoFaultsPassThrough(t *testing.T) {
	rt := wrapFaulty(t, 2, nil)
	defer rt.Close()
	want := &msg.PageReply{Page: 3, Ownership: true, Data: []byte{1, 2, 3, 4}}
	rt.Send(0, 1, want, 777)
	d, ok := rt.Recv(1)
	if !ok {
		t.Fatal("no delivery")
	}
	pr, isPR := d.Msg.(*msg.PageReply)
	if !isPR || pr.Page != 3 || !pr.Ownership {
		t.Fatalf("got %#v", d.Msg)
	}
	if d.From != 0 || d.VTime != 777 {
		t.Errorf("metadata: from=%d vtime=%d", d.From, d.VTime)
	}
	// The envelope overhead is charged as wire bytes of the wrapped type.
	raw := len(msg.Marshal(want)) + simnet.UDPOverhead
	if st := rt.Stats(); st.Bytes[msg.TPageReply] <= int64(raw) {
		t.Errorf("Bytes[PageReply] = %d, want > unwrapped %d (envelope charged)", st.Bytes[msg.TPageReply], raw)
	}
}

// TestDroppedPageReplyRetransmitted is the satellite's required case: a
// dropped-then-retransmitted PageReply arrives exactly once, in order.
func TestDroppedPageReplyRetransmitted(t *testing.T) {
	// Drop ~half of everything; retransmission must still deliver every
	// message exactly once, in send order.
	rt := wrapFaulty(t, 2, &simnet.FaultPlan{Seed: 11, Drop: 0.5})
	defer rt.Close()
	const n = 40
	for i := 0; i < n; i++ {
		rt.Send(0, 1, &msg.PageReply{Page: 7, Data: []byte{byte(i)}}, int64(i))
	}
	for i := 0; i < n; i++ {
		d, ok := rt.Recv(1)
		if !ok {
			t.Fatalf("transport closed after %d of %d deliveries", i, n)
		}
		pr := d.Msg.(*msg.PageReply)
		if int(pr.Data[0]) != i {
			t.Fatalf("delivery %d carries payload %d: out of order or duplicated", i, pr.Data[0])
		}
	}
	st := rt.Stats()
	if st.Retransmits == 0 {
		t.Error("50% drop produced no retransmits")
	}
	if st.TotalDropped() == 0 {
		t.Error("fault injector dropped nothing")
	}
	if st.RetransBytes == 0 {
		t.Error("retransmit bytes not charged")
	}
}

func TestDuplicatedWireDeliveredOnce(t *testing.T) {
	rt := wrapFaulty(t, 2, &simnet.FaultPlan{Seed: 5, Dup: 1.0})
	defer rt.Close()
	const n = 10
	for i := 0; i < n; i++ {
		rt.Send(0, 1, &msg.PageReq{Page: 1, Write: i%2 == 0}, int64(i))
	}
	for i := 0; i < n; i++ {
		d, ok := rt.Recv(1)
		if !ok {
			t.Fatalf("closed after %d", i)
		}
		if d.VTime != int64(i) {
			t.Fatalf("delivery %d has vtime %d: duplicate slipped through", i, d.VTime)
		}
	}
	// No more deliveries may be pending: every wire duplicate was deduped,
	// and once the acknowledgments settle Recv finds nothing to wait for.
	if _, ok := rt.Recv(1); ok {
		t.Error("extra delivery: dedup failed")
	}
	if st := rt.Stats(); st.Deduped == 0 {
		t.Error("Deduped = 0 with Dup=1.0")
	}
}

func TestReorderedWireResequenced(t *testing.T) {
	rt := wrapFaulty(t, 2, &simnet.FaultPlan{Seed: 9, Reorder: 0.5, MaxReorder: 4})
	defer rt.Close()
	const n = 50
	for i := 0; i < n; i++ {
		rt.Send(0, 1, &msg.PageReply{Page: 2, Data: []byte{byte(i)}}, int64(i))
	}
	for i := 0; i < n; i++ {
		d, ok := rt.Recv(1)
		if !ok {
			t.Fatalf("closed after %d", i)
		}
		if got := int(d.Msg.(*msg.PageReply).Data[0]); got != i {
			t.Fatalf("delivery %d carries payload %d: resequencing failed", i, got)
		}
	}
	if st := rt.Stats(); st.Reordered == 0 {
		t.Error("wire reordered nothing")
	}
}

func TestPiggybackSuppressesPureAcks(t *testing.T) {
	// A clean request/reply ping-pong: every data envelope carries the
	// reverse ACK, so pure RelAcks should (almost) never be needed. Allow
	// the final exchange's delayed ack.
	rt := wrapFaulty(t, 2, nil)
	defer rt.Close()
	const n = 20
	for i := 0; i < n; i++ {
		rt.Send(0, 1, &msg.PageReq{Page: 9}, int64(i))
		d, ok := rt.Recv(1)
		if !ok {
			t.Fatal("request lost mid ping-pong")
		}
		rt.Send(1, 0, &msg.PageReply{Page: d.Msg.(*msg.PageReq).Page}, 0)
		if _, ok := rt.Recv(0); !ok {
			t.Fatal("reply lost mid ping-pong")
		}
	}
	st := rt.Stats()
	if st.Messages[msg.TRelAck] > 4 {
		t.Errorf("ping-pong sent %d pure acks; piggybacking is not working", st.Messages[msg.TRelAck])
	}
	if st.Retransmits > 0 {
		t.Errorf("lossless ping-pong retransmitted %d times", st.Retransmits)
	}
}

func TestPureAckWithoutReverseTraffic(t *testing.T) {
	// One-directional traffic: without piggybacking opportunities the
	// delayed-ack deadline must still acknowledge, or the sender would
	// retransmit forever and eventually kill the link. Six deliveries: the
	// fourth owes an immediate ack, the last two a delayed one.
	rt := wrapFaulty(t, 2, nil)
	defer rt.Close()
	for i := 0; i < 6; i++ {
		rt.Send(0, 1, &msg.DiffFlush{Page: 1}, int64(i))
		rt.Recv(1)
	}
	// Settle: fire deadlines until nothing is left to retry.
	for settle := 0; rt.Advance(); settle++ {
		if settle == 100 {
			t.Fatal("deadlines still firing after 100 rounds")
		}
	}
	st := rt.Stats()
	if got := st.Messages[msg.TRelAck]; got != 2 {
		t.Errorf("%d pure acks on a one-way stream, want 2 (one after ackEvery deliveries, one delayed)", got)
	}
	// The sender's queue must be empty (acks consumed): no retransmission
	// ran, and none is pending.
	if st.Retransmits > 0 {
		t.Errorf("%d retransmissions on a lossless one-way stream", st.Retransmits)
	}
	before := st.Retransmits
	if rt.Advance() {
		t.Error("a deadline is still pending after the acks")
	}
	if after := rt.Stats().Retransmits; after > before {
		t.Errorf("retransmissions still running after acks: %d -> %d", before, after)
	}
}

// TestLinkDeathAfterRetryCap: on a wire that loses everything, a reader's
// wait fires the link's retransmission deadline MaxRetries times, then
// declares the link dead, tells the owner, and shuts the transport down.
func TestLinkDeathAfterRetryCap(t *testing.T) {
	nw := simnet.New(2)
	if err := nw.SetFaults(&simnet.FaultPlan{Seed: 3, Drop: 1.0}); err != nil {
		t.Fatal(err)
	}
	var dead [][2]int
	rt := Wrap(nw, 2, Config{OnLinkDead: func(from, to int) { dead = append(dead, [2]int{from, to}) }})
	rt.Send(0, 1, &msg.PageReq{Page: 4}, 10)
	if _, ok := rt.Recv(1); ok {
		t.Fatal("delivery over a wire that drops everything")
	}
	if len(dead) != 1 || dead[0] != [2]int{0, 1} {
		t.Errorf("OnLinkDead calls = %v, want one for 0->1", dead)
	}
	st := rt.Stats()
	if st.Retransmits != MaxRetries || st.Errors != 1 {
		t.Errorf("retransmits = %d, errors = %d; want %d, 1", st.Retransmits, st.Errors, MaxRetries)
	}
	if !nw.Closed() || rt.Advance() {
		t.Error("the wire is still open, or a deadline still fires, after link death")
	}
}

func TestSelfSendBypass(t *testing.T) {
	rt := wrapFaulty(t, 2, &simnet.FaultPlan{Seed: 2, Drop: 1.0})
	defer rt.Close()
	rt.Send(1, 1, &msg.BarrierArrive{Epoch: 1}, 5)
	d, ok := rt.Recv(1)
	if !ok {
		t.Fatal("self-send lost")
	}
	if _, isBA := d.Msg.(*msg.BarrierArrive); !isBA {
		t.Fatalf("got %#v", d.Msg)
	}
}

func TestChaosSoakManyMessages(t *testing.T) {
	// Full chaos: drops, duplicates, reordering and jitter at once, two
	// directions, interleaved senders. Everything must arrive exactly
	// once, in per-link order.
	rt := wrapFaulty(t, 2, &simnet.FaultPlan{
		Seed: 1234, Drop: 0.1, Dup: 0.05, Reorder: 0.1, MaxReorder: 3, JitterNS: 10_000,
	})
	defer rt.Close()
	const n = 300
	for i := 0; i < n; i++ {
		rt.Send(0, 1, &msg.PageReply{Page: 1, Data: []byte{byte(i), byte(i >> 8)}}, int64(i))
		rt.Send(1, 0, &msg.PageReply{Page: 2, Data: []byte{byte(i), byte(i >> 8)}}, int64(i))
	}
	check := func(at int) {
		for i := 0; i < n; i++ {
			d, ok := rt.Recv(at)
			if !ok {
				t.Errorf("endpoint %d: closed after %d", at, i)
				return
			}
			pr := d.Msg.(*msg.PageReply)
			if got := int(pr.Data[0]) | int(pr.Data[1])<<8; got != i {
				t.Errorf("endpoint %d: delivery %d carries %d", at, i, got)
				return
			}
		}
	}
	check(0)
	check(1)
	st := rt.Stats()
	if st.Retransmits == 0 || st.TotalDropped() == 0 {
		t.Errorf("soak exercised nothing: retransmits=%d dropped=%d", st.Retransmits, st.TotalDropped())
	}
}

// TestSendSharesNothing: the sublayer copies at send — the envelope carries
// the message marshaled — so a delivery shares no memory with the message
// sent, even with the sender writing to it afterwards and the wire's pooled
// encode buffer written again. It sends a PageReply and an AcquireGrant
// carrying records, overwrites every slice of the sent message, and sends
// a second message of the same shape; each delivery must equal a deep copy
// of its message taken before the send.
func TestSendSharesNothing(t *testing.T) {
	rt := wrapFaulty(t, 2, nil)
	defer rt.Close()
	for _, mk := range []func(seed uint32) msg.Message{pageReply, acquireGrant} {
		first, second := mk(1), mk(100)
		want := []msg.Message{mk(1), mk(100)}
		rt.Send(0, 1, first, 0)
		scribble(first)
		rt.Send(0, 1, second, 0)
		scribble(second)
		for i, w := range want {
			if d, _ := rt.Recv(1); !reflect.DeepEqual(d.Msg, w) {
				t.Errorf("delivery %d of %v:\n got %+v\nwant %+v", i, w.Type(), d.Msg, w)
			}
		}
	}
}

func pageReply(seed uint32) msg.Message {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(seed) + byte(i)
	}
	return &msg.PageReply{Page: mem.PageID(seed), Ownership: true, Data: data}
}

func acquireGrant(seed uint32) msg.Message {
	g := &msg.AcquireGrant{Lock: int32(seed)}
	for i := uint32(0); i < 4; i++ {
		s := seed + 10*i
		g.Intervals = append(g.Intervals, &interval.Record{
			ID:           vc.IntervalID{Proc: int(i), Index: vc.Index(s)},
			VC:           vc.VC{vc.Index(s), vc.Index(s + 1), vc.Index(s + 2), vc.Index(s + 3)},
			Epoch:        int32(s),
			WriteNotices: []mem.PageID{mem.PageID(s), mem.PageID(s + 5)},
			ReadNotices:  []mem.PageID{mem.PageID(s + 1), mem.PageID(s + 2), mem.PageID(s + 7)},
		})
	}
	return g
}

// scribble overwrites every element of every slice m holds, and every
// record's header fields.
func scribble(m msg.Message) {
	switch m := m.(type) {
	case *msg.PageReply:
		for i := range m.Data {
			m.Data[i] = 0xEE
		}
	case *msg.AcquireGrant:
		for _, r := range m.Intervals {
			*r = interval.Record{
				ID:           vc.IntervalID{Proc: 99, Index: 99},
				VC:           fill(r.VC, 0xEEEE),
				Epoch:        -1,
				WriteNotices: fill(r.WriteNotices, -1),
				ReadNotices:  fill(r.ReadNotices, -1),
			}
		}
	}
}

func fill[S ~[]E, E any](s S, v E) S {
	for i := range s {
		s[i] = v
	}
	return s
}

package simnet

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/vc"
)

func TestSendRecvRoundTrip(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	sent := &msg.PageReq{Page: 7, Write: true}
	nw.Send(0, 1, sent, 12345)
	d, ok := nw.Recv(1)
	if !ok {
		t.Fatal("Recv returned !ok")
	}
	if d.From != 0 || d.VTime != 12345 {
		t.Errorf("metadata: %+v", d)
	}
	got, ok := d.Msg.(*msg.PageReq)
	if !ok || got.Page != 7 || !got.Write {
		t.Errorf("payload: %+v", d.Msg)
	}
	if d.Bytes <= UDPOverhead {
		t.Errorf("Bytes = %d, want > header", d.Bytes)
	}
}

func TestFIFOOrder(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	for i := 0; i < 50; i++ {
		nw.Send(0, 1, &msg.PageReq{Page: 0}, int64(i))
	}
	for i := 0; i < 50; i++ {
		d, ok := nw.Recv(1)
		if !ok || d.VTime != int64(i) {
			t.Fatalf("delivery %d: vtime = %d ok=%v", i, d.VTime, ok)
		}
	}
}

func TestStats(t *testing.T) {
	nw := New(3)
	defer nw.Close()
	nw.Send(0, 1, &msg.PageReq{Page: 1}, 0)
	nw.Send(1, 2, &msg.PageReq{Page: 2}, 0)
	nw.Send(2, 0, &msg.DiffAck{}, 0)
	s := nw.Stats()
	if s.Messages[msg.TPageReq] != 2 || s.Messages[msg.TDiffAck] != 1 {
		t.Errorf("message counts: %+v", s.Messages)
	}
	if s.TotalMessages() != 3 {
		t.Errorf("TotalMessages = %d", s.TotalMessages())
	}
	if s.Bytes[msg.TPageReq] <= 2*UDPOverhead {
		t.Errorf("PageReq bytes = %d", s.Bytes[msg.TPageReq])
	}
	if s.TotalBytes() < s.Bytes[msg.TPageReq] {
		t.Error("TotalBytes inconsistent")
	}
}

// TestRecvAfterClose: Recv never waits. After Close it drains what is
// queued, then reports false; a send after Close is charged but dropped.
func TestRecvAfterClose(t *testing.T) {
	nw := New(2)
	if _, ok := nw.Recv(1); ok {
		t.Error("Recv on an empty network returned ok")
	}
	nw.Send(0, 1, &msg.PageReq{Page: 1}, 0)
	nw.Send(1, 1, &msg.PageReq{Page: 2}, 0)
	nw.Close()
	nw.Send(0, 1, &msg.DiffAck{}, 0)
	for _, want := range []mem.PageID{1, 2} {
		d, ok := nw.Recv(1)
		if !ok || d.Msg.(*msg.PageReq).Page != want {
			t.Fatalf("Recv after Close = %+v, %v; want page %d", d, ok, want)
		}
	}
	if _, ok := nw.Recv(1); ok {
		t.Error("message delivered after close")
	}
	if got := nw.Stats().Messages[msg.TDiffAck]; got != 1 {
		t.Errorf("send after Close charged %d messages, want 1", got)
	}
}

func TestCloseDrainsQueued(t *testing.T) {
	nw := New(1)
	nw.Send(0, 0, &msg.PageReq{Page: 3}, 0)
	nw.Close()
	d, ok := nw.Recv(0)
	if !ok || d.Msg.(*msg.PageReq).Page != 3 {
		t.Errorf("queued message lost on close: ok=%v", ok)
	}
	if _, ok := nw.Recv(0); ok {
		t.Error("phantom message after drain")
	}
}

// TestSendersQueuePerLink: four senders interleave sends to one endpoint.
// Each link's FIFO keeps its sender's order, Recv takes the lowest sender's
// link first, and every send is counted.
func TestSendersQueuePerLink(t *testing.T) {
	nw := New(4)
	const per = 50
	for i := 0; i < per; i++ {
		for from := 3; from >= 0; from-- {
			nw.Send(from, 3, &msg.PageReq{Page: 1}, int64(i))
		}
	}
	for from := 0; from < 4; from++ {
		if n := nw.Link(from, 3).n; n != per {
			t.Errorf("link %d->3 holds %d, want %d", from, n, per)
		}
		for i := 0; i < per; i++ {
			d, ok := nw.Recv(3)
			if !ok || d.From != from || d.VTime != int64(i) {
				t.Fatalf("delivery %d of sender %d: %+v ok=%v", i, from, d, ok)
			}
		}
	}
	if _, ok := nw.Recv(3); ok {
		t.Error("extra delivery")
	}
	if got := nw.Stats().TotalMessages(); got != 4*per {
		t.Errorf("TotalMessages = %d, want %d", got, 4*per)
	}
}

func TestSendInvalidEndpointPanics(t *testing.T) {
	nw := New(1)
	defer nw.Close()
	defer func() {
		if recover() == nil {
			t.Error("no panic for invalid endpoint")
		}
	}()
	nw.Send(0, 5, &msg.DiffAck{}, 0)
}

// TestFragmentation: payloads above the MTU count as multiple datagrams.
func TestFragmentation(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	small := &msg.PageReply{Page: 1, Data: make([]byte, 100)}
	big := &msg.PageReply{Page: 2, Data: make([]byte, 3*DefaultMTU+100)}
	nw.Send(0, 1, small, 0)
	nw.Send(0, 1, big, 0)

	d1, _ := nw.Recv(1)
	if d1.Frags != 1 {
		t.Errorf("small frags = %d", d1.Frags)
	}
	d2, _ := nw.Recv(1)
	if d2.Frags != 4 { // just over three MTUs
		t.Errorf("big frags = %d, want 4", d2.Frags)
	}
	if d2.Bytes <= len(big.Data)+UDPOverhead {
		t.Errorf("fragmented payload should pay per-fragment headers: %d", d2.Bytes)
	}
	s := nw.Stats()
	if s.Messages[msg.TPageReply] != int64(1+d2.Frags) {
		t.Errorf("message count = %d, want %d", s.Messages[msg.TPageReply], 1+d2.Frags)
	}
}

// TestSendHandsOver: Send delivers the sent message itself, not a parse of
// its bytes, and charges the wire exactly what the encoding weighs — Bytes
// is len(msg.Marshal(m)) plus one UDPOverhead per fragment. On a clean and
// on a faulty wire the Stats and the delivery schedule equal those of a
// network that is sent decoded copies of the same messages.
func TestSendHandsOver(t *testing.T) {
	msgs := []msg.Message{
		&msg.PageReq{Page: 7, Write: true},
		&msg.PageReply{Page: 2, Ownership: true, Data: make([]byte, 3*DefaultMTU+100)}, // 4 fragments
		&msg.AcquireGrant{Lock: 1, Intervals: []*interval.Record{
			{ID: vc.IntervalID{Proc: 1, Index: 3}, VC: vc.VC{1, 3}, WriteNotices: []mem.PageID{1, 2}, ReadNotices: []mem.PageID{4}},
		}},
	}
	plans := []*FaultPlan{nil, {Seed: 3, Drop: 0.2, Dup: 0.2, Reorder: 0.3, JitterNS: 500}}
	for _, plan := range plans {
		handed, copied := New(2), New(2)
		if err := handed.SetFaults(plan); err != nil {
			t.Fatal(err)
		}
		if err := copied.SetFaults(plan); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			m := msgs[i%len(msgs)]
			wire := msg.Marshal(m)
			frags := (len(wire) + DefaultMTU - 1) / DefaultMTU
			if got, want := handed.Send(0, 1, m, int64(i)), len(wire)+frags*UDPOverhead; got != want {
				t.Fatalf("%v: Send returned %d bytes, want %d", m.Type(), got, want)
			}
			parsed, err := msg.Unmarshal(wire)
			if err != nil {
				t.Fatal(err)
			}
			copied.Send(0, 1, parsed, int64(i))
		}
		if got, want := handed.Stats(), copied.Stats(); got != want {
			t.Errorf("faults %v: stats %+v, sending copies %+v", plan != nil, got, want)
		}
		handed.Close()
		copied.Close()
		for n := 0; ; n++ {
			hd, hok := handed.Recv(1)
			cd, cok := copied.Recv(1)
			if hok != cok {
				t.Fatalf("faults %v: delivery schedules differ in length", plan != nil)
			}
			if !hok {
				break
			}
			if !slices.Contains(msgs, hd.Msg) {
				t.Fatalf("faults %v: delivery %d carries a copy of %v, not the sent message", plan != nil, n, hd.Msg.Type())
			}
			if !bytes.Equal(msg.Marshal(hd.Msg), msg.Marshal(cd.Msg)) {
				t.Fatalf("faults %v: delivery %d is %v, sending copies delivers %v", plan != nil, n, hd.Msg.Type(), cd.Msg.Type())
			}
			hd.Msg, cd.Msg = nil, nil
			if hd != cd {
				t.Fatalf("faults %v: delivery %d is %+v, sending copies delivers %+v", plan != nil, n, hd, cd)
			}
		}
	}
}

// TestSendAllocatesOnlyTheDecode: Send encodes into a pooled buffer and
// hands the message over, so a send and its receive allocate nothing; in
// test binaries, whose Send also round-trips every message (checkCodec),
// they allocate no more than decoding the same bytes does.
func TestSendAllocatesOnlyTheDecode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	nw := New(2)
	defer nw.Close()
	for _, m := range []msg.Message{
		&msg.PageReply{Page: 3, Data: make([]byte, 4096)},
		&msg.AcquireGrant{Lock: 1, Intervals: []*interval.Record{
			{VC: vc.VC{1, 2, 3, 4}, WriteNotices: []mem.PageID{1, 2}, ReadNotices: []mem.PageID{3}},
			{VC: vc.VC{5, 6, 7, 8}, WriteNotices: []mem.PageID{4}},
		}},
	} {
		wire := msg.Marshal(m)
		decode := testing.AllocsPerRun(200, func() {
			if _, err := msg.Unmarshal(wire); err != nil {
				t.Fatal(err)
			}
		})
		sendRecv := func() float64 {
			return testing.AllocsPerRun(200, func() {
				nw.Send(0, 1, m, 0)
				nw.Recv(1)
			})
		}
		if checked := sendRecv(); checked > decode {
			t.Errorf("%v: Send+Recv with the codec check allocates %v times, Unmarshal alone %v", m.Type(), checked, decode)
		}
		checkCodec = false
		plain := sendRecv()
		checkCodec = true
		if plain != 0 {
			t.Errorf("%v: Send+Recv allocates %v times, want 0", m.Type(), plain)
		}
	}
}

// TestLinkForgetsDelivered interleaves 10⁵ pushes and pops on one link:
// the ring grows only with the queue's length, and every slot Pop has
// emptied is zero, so a delivered message is not kept alive by its link.
func TestLinkForgetsDelivered(t *testing.T) {
	const total = 100_000
	var q FIFO
	rng := rand.New(rand.NewSource(1))
	pushed, popped, longest := 0, 0, 0
	for popped < total {
		for k := rng.Intn(8); k >= 0 && pushed < total; k-- {
			q.Push(Delivery{VTime: int64(pushed), Msg: &msg.PageReq{Page: mem.PageID(pushed)}})
			pushed++
		}
		longest = max(longest, pushed-popped)
		for k := rng.Intn(8); k >= 0 && popped < pushed; k-- {
			if h := q.Peek(); h == nil || h.VTime != int64(popped) {
				t.Fatalf("peek %d: %+v", popped, h)
			}
			d, ok := q.Pop()
			if !ok || d.VTime != int64(popped) {
				t.Fatalf("pop %d: got %d ok %v", popped, d.VTime, ok)
			}
			popped++
			if s := q.ring[(q.head+len(q.ring)-1)%len(q.ring)]; s != (Delivery{}) {
				t.Fatalf("pop %d left its slot holding %+v", popped, s)
			}
		}
	}
	for i, s := range q.ring {
		if s != (Delivery{}) {
			t.Fatalf("drained ring still holds %+v in slot %d", s, i)
		}
	}
	if c := cap(q.ring); c > max(4, 2*longest) {
		t.Errorf("ring capacity %d after a longest queue of %d", c, longest)
	}
	if _, ok := q.Pop(); ok || q.Peek() != nil || q.n != 0 {
		t.Error("drained FIFO is not empty")
	}
}

// TestLinkOrder: a send lands in its directed link's FIFO in send order;
// OnHead hears of each delivery that lands in an empty FIFO, and only of
// those; an interceptor takes the wire's deliveries instead of the FIFOs
// and hands on with Push.
func TestLinkOrder(t *testing.T) {
	nw := New(3)
	var heads []string
	nw.OnHead(func(to int, d Delivery) { heads = append(heads, fmt.Sprintf("%d->%d@%d", d.From, to, d.VTime)) })
	nw.Send(2, 0, &msg.DiffAck{}, 1)
	nw.Send(1, 0, &msg.DiffAck{}, 2)
	nw.Send(2, 0, &msg.DiffAck{}, 3)
	nw.Send(0, 1, &msg.DiffAck{}, 4)
	if want := []string{"2->0@1", "1->0@2", "0->1@4"}; !reflect.DeepEqual(heads, want) {
		t.Errorf("heads %v, want %v", heads, want)
	}
	for _, want := range []int64{1, 3} {
		if d, ok := nw.Link(2, 0).Pop(); !ok || d.VTime != want {
			t.Errorf("link 2->0 popped %+v, %v; want vtime %d", d, ok, want)
		}
	}
	nw.Send(2, 0, &msg.DiffAck{}, 5) // the emptied link has a new head
	if got := heads[len(heads)-1]; got != "2->0@5" {
		t.Errorf("last head %s, want 2->0@5", got)
	}

	var seen []int
	nw.Intercept(func(to int, d Delivery) {
		seen = append(seen, to)
		if d.VTime != 7 {
			nw.Push(to, d)
		}
	})
	nw.Send(0, 2, &msg.DiffAck{}, 6)
	nw.Send(1, 2, &msg.DiffAck{}, 7) // withheld by the interceptor
	if !reflect.DeepEqual(seen, []int{2, 2}) || nw.Link(0, 2).n != 1 || nw.Link(1, 2).n != 0 {
		t.Errorf("intercepted %v; links 0->2 %d, 1->2 %d", seen, nw.Link(0, 2).n, nw.Link(1, 2).n)
	}
}

// TestForwardChargesLikeSend: forwarding a delivered message charges the
// wire exactly what sending it again would — the same size and fragments,
// the same counters, the same fault decisions on a faulty link — without
// encoding it again, and hands the receiver the forwarder's copy.
func TestForwardChargesLikeSend(t *testing.T) {
	plans := []*FaultPlan{nil, {Seed: 5, Drop: 0.2, Dup: 0.2, Reorder: 0.2, JitterNS: 1000}}
	for _, plan := range plans {
		for _, m := range []msg.Message{
			&msg.PageReq{Page: 7},
			&msg.PageReply{Page: 2, Data: make([]byte, 3*DefaultMTU+100)}, // fragmented
		} {
			// Both networks deliver m to 0 by loopback; then 0 passes it
			// on to 1 twenty times, re-sending it on one network and
			// forwarding the delivery on the other.
			sent, fwd := New(2), New(2)
			if err := sent.SetFaults(plan); err != nil {
				t.Fatal(err)
			}
			if err := fwd.SetFaults(plan); err != nil {
				t.Fatal(err)
			}
			sent.Send(0, 0, m, 0)
			fwd.Send(0, 0, m, 0)
			sent.Recv(0)
			d, _ := fwd.Recv(0)
			if m.Type() == msg.TPageReply && d.Frags != 4 {
				t.Fatalf("%v: %d fragments, want 4", m.Type(), d.Frags)
			}
			for i := 0; i < 20; i++ {
				want := sent.Send(0, 1, d.Msg, int64(i))
				if got := fwd.Forward(0, 1, d, int64(i)); got != want {
					t.Fatalf("%v: Forward returned %d bytes, Send %d", m.Type(), got, want)
				}
			}
			if got, want := fwd.Stats(), sent.Stats(); got != want {
				t.Errorf("%v, faults %v: Forward stats %+v, Send stats %+v", m.Type(), plan != nil, got, want)
			}
			sent.Close()
			fwd.Close()
			for {
				ws, wok := sent.Recv(1)
				gs, gok := fwd.Recv(1)
				if wok != gok {
					t.Fatalf("%v: delivery schedules differ in length", m.Type())
				}
				if !wok {
					break
				}
				if gs.Msg != d.Msg {
					t.Fatalf("%v: forwarded delivery carries a copy", m.Type())
				}
				gs.Msg, ws.Msg = nil, nil
				if gs != ws {
					t.Fatalf("%v: forwarded delivery %+v, sent %+v", m.Type(), gs, ws)
				}
			}
		}
	}
}

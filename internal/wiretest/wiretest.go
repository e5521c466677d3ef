// Package wiretest holds the check every transport's tests run against the
// contract dsm.Transport states: a delivered message shares no memory with
// the message sent, and Send keeps no reference to the message once it
// returns — even though the transports encode into pooled buffers.
package wiretest

import (
	"reflect"
	"testing"

	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/vc"
)

// SendSharesNothing sends a PageReply and an AcquireGrant carrying records
// through send, then mutates every slice of the sent message and sends a
// second message of the same shape, so the pooled encode buffer is written
// again. The first message recv returns must equal a deep copy taken before
// the send, and the second its own copy. send and recv must use one FIFO
// link.
func SendSharesNothing(t *testing.T, send func(msg.Message), recv func() msg.Message) {
	t.Helper()
	for _, mk := range []func(seed uint32) msg.Message{pageReply, acquireGrant} {
		first, second := mk(1), mk(100)
		want := []msg.Message{mk(1), mk(100)}
		send(first)
		scribble(first)
		send(second)
		scribble(second)
		for i, w := range want {
			if got := recv(); !reflect.DeepEqual(got, w) {
				t.Errorf("delivery %d of %v:\n got %+v\nwant %+v", i, w.Type(), got, w)
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

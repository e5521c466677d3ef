package service

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func TestStoreSeqsAndSince(t *testing.T) {
	st := NewStore(100)
	for i := 0; i < 10; i++ {
		sess := "a"
		if i%2 == 1 {
			sess = "b"
		}
		r := st.Append(Record{Session: sess, Kind: KindRace, Addr: uint64(i)})
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d got seq %d, want %d", i, r.Seq, i+1)
		}
	}
	if st.Len() != 10 || st.Appended() != 10 || st.Dropped() != 0 {
		t.Fatalf("len/appended/dropped = %d/%d/%d, want 10/10/0", st.Len(), st.Appended(), st.Dropped())
	}

	recs, lost, next := st.Since(0, "", 0)
	if len(recs) != 10 || lost != 0 || next != 10 {
		t.Fatalf("Since(0) = %d recs, lost %d, next %d; want 10, 0, 10", len(recs), lost, next)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("merged view out of order: recs[%d].Seq = %d", i, r.Seq)
		}
	}

	// The per-session view is a subsequence of the merged view under the
	// same cursor space.
	recs, _, _ = st.Since(0, "b", 0)
	if len(recs) != 5 {
		t.Fatalf("session b view has %d records, want 5", len(recs))
	}
	for _, r := range recs {
		if r.Session != "b" || r.Seq%2 != 0 {
			t.Fatalf("session b view contains %+v", r)
		}
	}

	// Resume from a mid-stream cursor.
	recs, lost, next = st.Since(7, "", 0)
	if len(recs) != 3 || lost != 0 || recs[0].Seq != 8 || next != 10 {
		t.Fatalf("Since(7) = %v lost=%d next=%d", recs, lost, next)
	}

	// max truncates; next points at the last returned record.
	recs, _, next = st.Since(0, "", 4)
	if len(recs) != 4 || next != 4 {
		t.Fatalf("Since(0,max=4) = %d recs next=%d, want 4, 4", len(recs), next)
	}
}

func TestStoreRetention(t *testing.T) {
	st := NewStore(8)
	for i := 0; i < 20; i++ {
		st.Append(Record{Session: "s", Kind: KindSession, Detail: fmt.Sprint(i)})
	}
	if st.Len() != 8 || st.Appended() != 20 || st.Dropped() != 12 {
		t.Fatalf("len/appended/dropped = %d/%d/%d, want 8/20/12", st.Len(), st.Appended(), st.Dropped())
	}
	recs, lost, next := st.Since(0, "", 0)
	if lost != 12 {
		t.Fatalf("lost = %d, want 12", lost)
	}
	if len(recs) != 8 || recs[0].Seq != 13 || next != 20 {
		t.Fatalf("retained window = %d recs starting %d next=%d, want 8 from 13, next 20", len(recs), recs[0].Seq, next)
	}
	// A cursor inside the retained window reports no loss.
	if _, lost, _ = st.Since(15, "", 0); lost != 0 {
		t.Fatalf("in-window cursor reported lost=%d", lost)
	}
}

// expired is a context that is already done: Next under it reads what is
// already there and never parks.
func expired() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestSubscriberDelivery(t *testing.T) {
	st := NewStore(100)
	sub := st.Subscribe("", 0)
	defer sub.Close()
	if st.Subscribers() != 1 {
		t.Fatalf("Subscribers() = %d, want 1", st.Subscribers())
	}
	for i := 0; i < 5; i++ {
		st.Append(Record{Session: "s", Kind: KindRace, Addr: uint64(i)})
	}
	recs, err := sub.Next(context.Background())
	if err != nil || len(recs) != 5 {
		t.Fatalf("Next = %d records, %v; want 5", len(recs), err)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("delivery %d got seq %d", i, r.Seq)
		}
		if r.Kind == KindTruncated {
			t.Fatal("truncation reported without a retention overrun")
		}
	}
	// Delivered means delivered: the cursor moved past the batch.
	if recs, err := sub.Next(expired()); len(recs) != 0 || err == nil {
		t.Fatalf("second Next = %v, %v; want nothing new", recs, err)
	}
}

func TestSubscriberSessionFilter(t *testing.T) {
	st := NewStore(100)
	sub := st.Subscribe("b", 0)
	defer sub.Close()
	st.Append(Record{Session: "a", Kind: KindRace})
	st.Append(Record{Session: "b", Kind: KindRace})
	st.Append(Record{Session: "a", Kind: KindRace})
	recs, err := sub.Next(context.Background())
	if err != nil || len(recs) != 1 || recs[0].Session != "b" || recs[0].Seq != 2 {
		t.Fatalf("filtered subscriber got %+v, %v", recs, err)
	}
	if recs, _ := sub.Next(expired()); len(recs) != 0 {
		t.Fatalf("unexpected extra delivery %+v", recs)
	}
	// Another session's append is not this reader's wake-up.
	select {
	case <-sub.wake: // the token the "b" append left, unless Next took it
	default:
	}
	st.Append(Record{Session: "a", Kind: KindRace})
	select {
	case <-sub.wake:
		t.Fatal("reader of session b woken by session a")
	default:
	}
}

// TestSubscriberWakesParkedReader: a reader parked on an empty window is
// woken by the append, and an appender facing a reader that never reads is
// never held up.
func TestSubscriberWakesParkedReader(t *testing.T) {
	st := NewStore(0)
	idle := st.Subscribe("", 0) // attached, never reads
	defer idle.Close()
	sub := st.Subscribe("", 0)
	defer sub.Close()
	got := make(chan []Record, 1)
	go func() {
		recs, _ := sub.Next(context.Background())
		got <- recs
	}()
	for i := 0; i < 1000; i++ {
		st.Append(Record{Session: "s", Kind: KindRace, Addr: uint64(i)})
	}
	select {
	case recs := <-got:
		if len(recs) == 0 || recs[0].Seq != 1 {
			t.Fatalf("parked reader woke to %d records, not starting at seq 1", len(recs))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked reader never woke")
	}
}

// TestSubscriberTruncatedExact: a reader overrun by retention gets one
// truncated record whose Seq and count are exactly the hole, then the
// retained window, and no second truncation for the same hole.
func TestSubscriberTruncatedExact(t *testing.T) {
	st := NewStore(8)
	sub := st.Subscribe("", 2)
	defer sub.Close()
	for i := 0; i < 20; i++ {
		st.Append(Record{Session: "s", Kind: KindRace})
	}
	recs, err := sub.Next(context.Background())
	if err != nil || len(recs) != 9 {
		t.Fatalf("Next = %d records, %v; want truncated + 8", len(recs), err)
	}
	if tr := recs[0]; tr.Kind != KindTruncated || tr.Seq != 12 || tr.Detail != "10 records dropped by store retention" {
		t.Fatalf("truncation record %+v; want seq 12 covering 3..12", tr)
	}
	for i, r := range recs[1:] {
		if r.Seq != uint64(13+i) {
			t.Fatalf("retained window out of order: %+v", recs[1:])
		}
	}
	st.Append(Record{Session: "s", Kind: KindRace})
	if recs, _ := sub.Next(context.Background()); len(recs) != 1 || recs[0].Seq != 21 {
		t.Fatalf("after the hole: %+v, want just seq 21", recs)
	}
}

func TestSubscriberCloseDetaches(t *testing.T) {
	st := NewStore(100)
	sub := st.Subscribe("", 0)
	sub.Close()
	sub.Close() // idempotent
	if st.Subscribers() != 0 {
		t.Fatalf("Subscribers() = %d after Close", st.Subscribers())
	}
	st.Append(Record{Session: "s"})
	select {
	case <-sub.wake:
		t.Fatal("closed subscriber was woken")
	default:
	}
}

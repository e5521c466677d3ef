package simnet

import (
	"fmt"
	"reflect"
	"testing"

	"lrcrace/internal/msg"
)

// schedule records the delivery order seen by one endpoint as compact
// strings (sender, type, vtime, bytes) — the "delivery schedule" whose
// byte-identical reproducibility the fault injector guarantees.
func schedule(nw *Network, proc, count int) []string {
	var got []string
	for i := 0; i < count; i++ {
		d, ok := nw.Recv(proc)
		if !ok {
			break
		}
		got = append(got, fmt.Sprintf("%d/%v/%d/%d", d.From, d.Msg.Type(), d.VTime, d.Bytes))
	}
	return got
}

// chaosRun sends a fixed message sequence over a faulty wire and returns
// the delivery schedule plus the network stats.
func chaosRun(t *testing.T, plan FaultPlan, sends int) ([]string, Stats) {
	t.Helper()
	nw := New(2)
	if err := nw.SetFaults(&plan); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sends; i++ {
		nw.Send(0, 1, &msg.PageReq{Page: 1, Write: i%2 == 0}, int64(i)*1000)
		nw.Send(0, 1, &msg.AcquireReq{Lock: int32(i % 4), VC: []uint32{uint32(i), 2}}, int64(i)*1000+10)
	}
	st := nw.Stats()
	nw.Close()
	delivered := int(st.Messages[msg.TPageReq]+st.Messages[msg.TAcquireReq]) -
		int(st.TotalDropped())
	sched := schedule(nw, 1, delivered+10) // +10: drain everything until close
	return sched, st
}

func TestFaultDeterminism(t *testing.T) {
	plan := FaultPlan{Seed: 42, Drop: 0.2, Dup: 0.1, Reorder: 0.15, MaxReorder: 4, JitterNS: 5000}
	s1, st1 := chaosRun(t, plan, 200)
	s2, st2 := chaosRun(t, plan, 200)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same seed produced different delivery schedules:\n%v\nvs\n%v", s1, s2)
	}
	if st1 != st2 {
		t.Errorf("same seed produced different stats:\n%+v\nvs\n%+v", st1, st2)
	}
	if st1.TotalDropped() == 0 || st1.TotalDuplicated() == 0 || st1.Reordered == 0 {
		t.Errorf("chaos plan exercised nothing: dropped=%d dup=%d reordered=%d",
			st1.TotalDropped(), st1.TotalDuplicated(), st1.Reordered)
	}

	// A different seed must produce a different schedule (with overwhelming
	// probability at 400 sends and these rates).
	s3, _ := chaosRun(t, FaultPlan{Seed: 43, Drop: 0.2, Dup: 0.1, Reorder: 0.15, MaxReorder: 4, JitterNS: 5000}, 200)
	if reflect.DeepEqual(s1, s3) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestFaultDropAccounting(t *testing.T) {
	nw := New(2)
	if err := nw.SetFaults(&FaultPlan{Seed: 1, Drop: 1.0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		nw.Send(0, 1, &msg.DiffAck{}, 0)
	}
	st := nw.Stats()
	if st.Dropped[msg.TDiffAck] != 10 {
		t.Errorf("Dropped[DiffAck] = %d, want 10", st.Dropped[msg.TDiffAck])
	}
	// Everything dropped: Recv must see nothing once closed.
	nw.Close()
	if _, ok := nw.Recv(1); ok {
		t.Error("dropped message was delivered")
	}
}

func TestFaultDupDelivery(t *testing.T) {
	nw := New(2)
	if err := nw.SetFaults(&FaultPlan{Seed: 7, Dup: 1.0}); err != nil {
		t.Fatal(err)
	}
	nw.Send(0, 1, &msg.DiffAck{}, 0)
	st := nw.Stats()
	if st.Duplicated[msg.TDiffAck] != 1 {
		t.Errorf("Duplicated[DiffAck] = %d, want 1", st.Duplicated[msg.TDiffAck])
	}
	// Both copies arrive, and both were charged to the wire.
	if st.Messages[msg.TDiffAck] != 2 {
		t.Errorf("Messages[DiffAck] = %d, want 2 (copy charged)", st.Messages[msg.TDiffAck])
	}
	for i := 0; i < 2; i++ {
		if _, ok := nw.Recv(1); !ok {
			t.Fatalf("copy %d missing", i)
		}
	}
}

func TestFaultReorderBounded(t *testing.T) {
	nw := New(2)
	// Hold back every message for a random 1–3 later sends: uneven delays
	// shuffle the order; nothing is ever lost.
	if err := nw.SetFaults(&FaultPlan{Seed: 3, Reorder: 1.0, MaxReorder: 3}); err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		nw.Send(0, 1, &msg.PageReq{Page: 0, Write: i%2 == 0}, int64(i))
	}
	nw.Close() // flush the held tail
	var order []int64
	for {
		d, ok := nw.Recv(1)
		if !ok {
			break
		}
		order = append(order, d.VTime)
	}
	if len(order) != n {
		t.Fatalf("delivered %d of %d", len(order), n)
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Errorf("Reorder=1.0 delivered in order: %v", order)
	}
	if nw.Stats().Reordered != n {
		t.Errorf("Reordered = %d, want %d", nw.Stats().Reordered, n)
	}
}

func TestSelfSendsNeverFaulted(t *testing.T) {
	nw := New(2)
	if err := nw.SetFaults(&FaultPlan{Seed: 5, Drop: 1.0}); err != nil {
		t.Fatal(err)
	}
	nw.Send(1, 1, &msg.DiffAck{}, 0)
	if _, ok := nw.Recv(1); !ok {
		t.Fatal("self-send was dropped by the fault injector")
	}
}

func TestFaultPlanValidation(t *testing.T) {
	nw := New(2)
	for _, p := range []FaultPlan{
		{Drop: -0.1}, {Drop: 1.5}, {Dup: 2}, {Reorder: -1},
		{MaxReorder: -2}, {JitterNS: -5},
	} {
		if err := nw.SetFaults(&p); err == nil {
			t.Errorf("plan %+v accepted", p)
		}
	}
	if err := nw.SetFaults(nil); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
}

func TestSealedAfterTraffic(t *testing.T) {
	nw := New(2)
	nw.Send(0, 1, &msg.DiffAck{}, 0)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s after traffic did not panic", name)
			}
		}()
		f()
	}
	mustPanic("SetFaults", func() { nw.SetFaults(&FaultPlan{Seed: 1}) })
}

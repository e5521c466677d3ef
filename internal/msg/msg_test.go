package msg

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/race"
	"lrcrace/internal/vc"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b := Marshal(m)
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal(%v): %v", m.Type(), err)
	}
	if got.Type() != m.Type() {
		t.Fatalf("type mismatch: %v vs %v", got.Type(), m.Type())
	}
	return got
}

func sampleRecord() *interval.Record {
	return &interval.Record{
		ID:           vc.IntervalID{Proc: 3, Index: 17},
		VC:           vc.VC{1, 2, 3, 17},
		Epoch:        5,
		WriteNotices: []mem.PageID{2, 9},
		ReadNotices:  []mem.PageID{1, 2, 3},
	}
}

func TestRoundTripAcquire(t *testing.T) {
	req := &AcquireReq{Lock: 7, VC: []uint32{1, 0, 4}}
	if got := roundTrip(t, req).(*AcquireReq); !reflect.DeepEqual(got, req) {
		t.Errorf("AcquireReq: got %+v want %+v", got, req)
	}
	fwd := &AcquireFwd{Lock: 7, Requester: 2, VC: []uint32{1, 0, 4}}
	if got := roundTrip(t, fwd).(*AcquireFwd); !reflect.DeepEqual(got, fwd) {
		t.Errorf("AcquireFwd: got %+v want %+v", got, fwd)
	}
	grant := &AcquireGrant{Lock: 7, Intervals: []*interval.Record{sampleRecord()}}
	got := roundTrip(t, grant).(*AcquireGrant)
	if got.Lock != 7 || len(got.Intervals) != 1 || !reflect.DeepEqual(got.Intervals[0], grant.Intervals[0]) {
		t.Errorf("AcquireGrant: got %+v", got)
	}
}

func TestRoundTripEmptyIntervals(t *testing.T) {
	grant := &AcquireGrant{Lock: 1}
	got := roundTrip(t, grant).(*AcquireGrant)
	if len(got.Intervals) != 0 {
		t.Errorf("intervals = %v, want empty", got.Intervals)
	}
}

func TestRoundTripPageMessages(t *testing.T) {
	req := &PageReq{Page: 12, Write: true}
	if got := roundTrip(t, req).(*PageReq); *got != *req {
		t.Errorf("PageReq: %+v", got)
	}
	fwd := &PageFwd{Page: 12, Requester: 4, Write: false}
	if got := roundTrip(t, fwd).(*PageFwd); *got != *fwd {
		t.Errorf("PageFwd: %+v", got)
	}
	data := make([]byte, 128)
	for i := range data {
		data[i] = byte(i * 3)
	}
	rep := &PageReply{Page: 12, Ownership: true, Data: data}
	got := roundTrip(t, rep).(*PageReply)
	if got.Page != 12 || !got.Ownership || !reflect.DeepEqual(got.Data, data) {
		t.Errorf("PageReply: %+v", got)
	}
}

func TestRoundTripDiff(t *testing.T) {
	df := &DiffFlush{Page: 3, Entries: []DiffEntry{{Word: 5, Val: 0xdead}, {Word: 1023, Val: 1}}}
	got := roundTrip(t, df).(*DiffFlush)
	if !reflect.DeepEqual(got, df) {
		t.Errorf("DiffFlush: got %+v want %+v", got, df)
	}
	roundTrip(t, &DiffAck{})
	inv := &Inval{Pages: []mem.PageID{7, 9}}
	gotInv := roundTrip(t, inv).(*Inval)
	if !reflect.DeepEqual(gotInv, inv) {
		t.Errorf("Inval: got %+v want %+v", gotInv, inv)
	}
	roundTrip(t, &InvalAck{})
}

func TestRoundTripBarrier(t *testing.T) {
	arr := &BarrierArrive{Epoch: 2, VC: []uint32{5, 6}, Intervals: []*interval.Record{sampleRecord(), sampleRecord()}}
	gotA := roundTrip(t, arr).(*BarrierArrive)
	if gotA.Epoch != 2 || !reflect.DeepEqual(gotA.VC, arr.VC) || len(gotA.Intervals) != 2 {
		t.Errorf("BarrierArrive: %+v", gotA)
	}

	rel := &BarrierRelease{
		Epoch:     2,
		GlobalVC:  []uint32{9, 9},
		Intervals: []*interval.Record{sampleRecord()},
		Check: []race.CheckEntry{
			{A: vc.IntervalID{Proc: 0, Index: 1}, B: vc.IntervalID{Proc: 1, Index: 2}, Page: 4},
		},
		NeedBitmaps: true,
	}
	gotR := roundTrip(t, rel).(*BarrierRelease)
	if !gotR.NeedBitmaps || len(gotR.Check) != 1 || gotR.Check[0] != rel.Check[0] || gotR.ShardOwner != nil {
		t.Errorf("BarrierRelease: %+v", gotR)
	}

	rel.ShardOwner = []int32{3}
	gotR = roundTrip(t, rel).(*BarrierRelease)
	if !reflect.DeepEqual(gotR.ShardOwner, rel.ShardOwner) {
		t.Errorf("BarrierRelease sharded: %+v", gotR)
	}

	bm := mem.NewBitmap(1024)
	bm.Set(7)
	br := &BitmapReply{Epoch: 2, Entries: []BitmapEntry{{Proc: 1, Index: 2, Page: 4, Read: bm, Write: nil}}}
	gotB := roundTrip(t, br).(*BitmapReply)
	if len(gotB.Entries) != 1 || !gotB.Entries[0].Read.Get(7) || gotB.Entries[0].Write != nil {
		t.Errorf("BitmapReply: %+v", gotB)
	}

	done := &BarrierDone{Epoch: 2, Races: []race.Report{{
		Page: 4, Word: 7, Addr: 0x8038, Epoch: 2,
		A: race.Endpoint{Interval: vc.IntervalID{Proc: 0, Index: 1}, Kind: race.Write},
		B: race.Endpoint{Interval: vc.IntervalID{Proc: 1, Index: 2}, Kind: race.Read},
	}}}
	gotD := roundTrip(t, done).(*BarrierDone)
	if len(gotD.Races) != 1 || gotD.Races[0] != done.Races[0] {
		t.Errorf("BarrierDone: %+v", gotD)
	}

	sr := &ShardResult{Epoch: 2, Races: done.Races, BitmapsCompared: 12, WordOverlaps: 3}
	gotS := roundTrip(t, sr).(*ShardResult)
	if gotS.Epoch != 2 || len(gotS.Races) != 1 || gotS.Races[0] != sr.Races[0] ||
		gotS.BitmapsCompared != 12 || gotS.WordOverlaps != 3 {
		t.Errorf("ShardResult: %+v", gotS)
	}
	empty := roundTrip(t, &ShardResult{Epoch: 5}).(*ShardResult)
	if empty.Epoch != 5 || len(empty.Races) != 0 {
		t.Errorf("empty ShardResult: %+v", empty)
	}
}

// TestRoundTripTreeBarrier covers the one message only the combining tree
// sends; its arrivals and release are BarrierArrive / BarrierRelease
// (TestRoundTripBarrier).
func TestRoundTripTreeBarrier(t *testing.T) {
	red := &TreeReduce{
		Epoch:     3,
		VC:        []uint32{9, 8, 7},
		Intervals: []*interval.Record{sampleRecord(), sampleRecord()},
		MinArr:    123456,
		Entries: []race.CheckEntry{
			{A: vc.IntervalID{Proc: 0, Index: 1}, B: vc.IntervalID{Proc: 2, Index: 4}, Page: 9},
		},
		PairComparisons:  40,
		ConcurrentPairs:  7,
		OverlappingPairs: 2,
		NoticesScanned:   31,
	}
	gotRed := roundTrip(t, red).(*TreeReduce)
	if gotRed.Epoch != 3 || !reflect.DeepEqual(gotRed.VC, red.VC) ||
		len(gotRed.Intervals) != 2 || gotRed.MinArr != 123456 ||
		len(gotRed.Entries) != 1 || gotRed.Entries[0] != red.Entries[0] ||
		gotRed.PairComparisons != 40 || gotRed.ConcurrentPairs != 7 ||
		gotRed.OverlappingPairs != 2 || gotRed.NoticesScanned != 31 {
		t.Errorf("TreeReduce: %+v", gotRed)
	}
	empty := roundTrip(t, &TreeReduce{Epoch: 5, MinArr: -1}).(*TreeReduce)
	if empty.Epoch != 5 || empty.MinArr != -1 || len(empty.Entries) != 0 {
		t.Errorf("empty TreeReduce: %+v", empty)
	}
}

func TestRoundTripReliability(t *testing.T) {
	inner := Marshal(&PageReply{Page: 3, Ownership: true, Data: []byte{9, 8, 7}})
	data := &RelData{Seq: 42, Ack: 41, Payload: inner}
	got := roundTrip(t, data).(*RelData)
	if !reflect.DeepEqual(got, data) {
		t.Errorf("RelData: got %+v want %+v", got, data)
	}
	// The payload must itself unmarshal back to the wrapped message.
	m, err := Unmarshal(got.Payload)
	if err != nil {
		t.Fatalf("payload unmarshal: %v", err)
	}
	if pr := m.(*PageReply); pr.Page != 3 || !pr.Ownership || !reflect.DeepEqual(pr.Data, []byte{9, 8, 7}) {
		t.Errorf("wrapped PageReply: got %+v", pr)
	}
	ack := &RelAck{Ack: 99}
	if got := roundTrip(t, ack).(*RelAck); *got != *ack {
		t.Errorf("RelAck: got %+v want %+v", got, ack)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{0xff}); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Error("empty buffer accepted")
	}
	// Truncated payloads of every valid message type must error, not panic.
	for _, m := range wireCorpus() {
		full := Marshal(m)
		for cut := 1; cut < len(full); cut++ {
			if _, err := Unmarshal(full[:cut]); err == nil {
				t.Errorf("%v truncated at %d/%d accepted", m.Type(), cut, len(full))
				break
			}
		}
		// Trailing garbage must be rejected too.
		if _, err := Unmarshal(append(append([]byte{}, full...), 0)); err == nil {
			t.Errorf("%v with trailing byte accepted", m.Type())
		}
	}
	// A flag byte other than 0 or 1 is corrupt, not a second spelling of true.
	b := Marshal(&PageReq{Page: 1, Write: true})
	b[len(b)-1] = 2
	if _, err := Unmarshal(b); !errors.Is(err, ErrCorrupt) {
		t.Errorf("PageReq with write byte 2: err = %v, want ErrCorrupt", err)
	}
}

func TestRecordReadNoticeBytes(t *testing.T) {
	rs := []*interval.Record{sampleRecord(), sampleRecord()}
	if got := RecordReadNoticeBytes(rs); got != 2*3*NoticeSize {
		t.Errorf("RecordReadNoticeBytes = %d, want %d", got, 2*3*NoticeSize)
	}
	// A read and a write notice have the same wire size: encode a record
	// with k write notices vs one with k read notices and compare.
	a := &interval.Record{ID: vc.IntervalID{}, VC: vc.New(2), WriteNotices: []mem.PageID{1, 2, 3}}
	b := &interval.Record{ID: vc.IntervalID{}, VC: vc.New(2), ReadNotices: []mem.PageID{1, 2, 3}}
	var ea, eb Encoder
	Wire{E: &ea}.Record(a)
	Wire{E: &eb}.Record(b)
	if ea.Len() != eb.Len() {
		t.Errorf("read/write notice sizes differ: %d vs %d", ea.Len(), eb.Len())
	}
}

// Property: records survive encode/decode for arbitrary notice sets.
func TestPropertyRecordRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rec := &interval.Record{
			ID:    vc.IntervalID{Proc: r.Intn(16), Index: vc.Index(r.Uint32() % 1000)},
			VC:    vc.New(1 + r.Intn(8)),
			Epoch: int32(r.Intn(100)),
		}
		for i := range rec.VC {
			rec.VC[i] = vc.Index(r.Uint32() % 1000)
		}
		for i := 0; i < r.Intn(6); i++ {
			rec.WriteNotices = append(rec.WriteNotices, mem.PageID(r.Intn(512)))
		}
		for i := 0; i < r.Intn(6); i++ {
			rec.ReadNotices = append(rec.ReadNotices, mem.PageID(r.Intn(512)))
		}
		m := &AcquireGrant{Lock: int32(r.Intn(64)), Intervals: []*interval.Record{rec}}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			return false
		}
		g := got.(*AcquireGrant)
		return g.Lock == m.Lock && len(g.Intervals) == 1 && reflect.DeepEqual(g.Intervals[0], rec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: decoder primitives round-trip arbitrary values.
func TestPropertyPrimitives(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, d uint64, g int64, blob []byte) bool {
		var enc Encoder
		enc.U8(a)
		enc.U16(b)
		enc.U32(c)
		enc.U64(d)
		enc.I64(g)
		enc.Blob(blob)
		dec := NewDecoder(enc.Bytes())
		ok := dec.U8() == a && dec.U16() == b && dec.U32() == c && dec.U64() == d &&
			dec.I64() == g
		got := dec.Blob()
		if len(blob) == 0 {
			ok = ok && len(got) == 0
		} else {
			ok = ok && reflect.DeepEqual(got, blob)
		}
		return ok && dec.Done()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTypeString(t *testing.T) {
	if TAcquireReq.String() != "AcquireReq" {
		t.Errorf("String = %q", TAcquireReq.String())
	}
	if Type(200).String() == "" {
		t.Error("unknown type has empty string")
	}
}

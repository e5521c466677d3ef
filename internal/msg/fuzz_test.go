package msg

import (
	"testing"

	"lrcrace/internal/mem"
)

// FuzzUnmarshal: arbitrary bytes must never panic the decoder, and
// anything it accepts must survive a re-encode/re-decode round trip of the
// same type.
func FuzzUnmarshal(f *testing.F) {
	seeds := []Message{
		&AcquireReq{Lock: 3, VC: []uint32{1, 2, 3}},
		&AcquireGrant{Lock: 1, Intervals: nil},
		&PageReply{Page: 2, Data: []byte{1, 2, 3, 4}},
		&BarrierRelease{Epoch: 1, GlobalVC: []uint32{5}, NeedBitmaps: true},
		&DiffFlush{Page: 9, Entries: []DiffEntry{{Word: 1, Val: 2}}},
		&Inval{Pages: []mem.PageID{3, 4, 5}},
		&BitmapReply{Epoch: 2, Entries: []BitmapEntry{{Proc: 1, Index: 2, Page: 3, Read: mem.NewBitmap(64)}}},
		&RelData{Seq: 9, Ack: 4, Payload: Marshal(&PageReq{Page: 1, Write: true})},
		&RelAck{Ack: 11},
		&BarrierRelease{Epoch: 3, GlobalVC: []uint32{7}, ShardOwner: []int32{0, 2, 1}, NeedBitmaps: true},
		&ShardResult{Epoch: 4, BitmapsCompared: 8, WordOverlaps: 2},
		&BarrierArrive{Epoch: 2, VC: []uint32{1, 2}},
		&TreeReduce{Epoch: 2, VC: []uint32{3, 4}, MinArr: 17, PairComparisons: 5, NoticesScanned: 12},
		&BarrierRelease{Epoch: 2, GlobalVC: []uint32{6}, NeedBitmaps: true},
	}
	for _, m := range seeds {
		f.Add(Marshal(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return // rejected: fine
		}
		re := Marshal(m)
		m2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if m2.Type() != m.Type() {
			t.Fatalf("type changed across round trip: %v vs %v", m.Type(), m2.Type())
		}
	})
}

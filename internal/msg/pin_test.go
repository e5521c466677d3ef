package msg

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/race"
	"lrcrace/internal/vc"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/wire_pins.txt from the current codec")

// wireCorpus is one or more messages of every type: each list field both
// empty and non-empty, each flag both false and true. It feeds the byte pin
// (TestWireBytesPinned), the malformed-input checks (TestUnmarshalErrors)
// and the fuzz seeds (FuzzUnmarshal).
func wireCorpus() []Message {
	bare := &interval.Record{ID: vc.IntervalID{Proc: 1, Index: 2}, VC: vc.VC{0, 2}, Epoch: 1}
	report := race.Report{
		Page: 4, Word: 7, Addr: 0x8038, Epoch: 2,
		A: race.Endpoint{Interval: vc.IntervalID{Proc: 0, Index: 1}, Kind: race.Write},
		B: race.Endpoint{Interval: vc.IntervalID{Proc: 1, Index: 2}, Kind: race.Read},
	}
	check := race.CheckEntry{A: vc.IntervalID{Proc: 0, Index: 1}, B: vc.IntervalID{Proc: 2, Index: 4}, Page: 9}
	return []Message{
		&AcquireReq{Lock: 7, VC: []uint32{1, 0, 4}},
		&AcquireReq{Lock: 0},
		&AcquireFwd{Lock: 7, Requester: 2, VC: []uint32{1, 0, 4}},
		&AcquireFwd{Lock: 3, Requester: 1},
		&AcquireGrant{Lock: 7, Intervals: []*interval.Record{sampleRecord(), bare}},
		&AcquireGrant{Lock: 1},
		&PageReq{Page: 12, Write: true},
		&PageReq{Page: 3},
		&PageFwd{Page: 12, Requester: 4, Write: true},
		&PageFwd{Page: 5, Requester: 1},
		&PageReply{Page: 12, Ownership: true, Data: []byte{0, 3, 6, 9, 12, 15, 18, 21}},
		&PageReply{Page: 2},
		&DiffFlush{Page: 3, Entries: []DiffEntry{{Word: 5, Val: 0xdead}, {Word: 1023, Val: 1}}},
		&DiffFlush{Page: 4},
		&DiffAck{},
		&Inval{Pages: []mem.PageID{7, 9}},
		&Inval{},
		&InvalAck{},
		&BarrierArrive{Epoch: 2, VC: []uint32{5, 6}, Intervals: []*interval.Record{sampleRecord(), bare}},
		&BarrierArrive{Epoch: 0},
		&BarrierRelease{Epoch: 2, GlobalVC: []uint32{9, 9}, Intervals: []*interval.Record{sampleRecord()},
			Check: []race.CheckEntry{check}, ShardOwner: []int32{3}, NeedBitmaps: true},
		&BarrierRelease{Epoch: 1, GlobalVC: []uint32{1}},
		&BitmapReply{Epoch: 2, Entries: []BitmapEntry{
			{Proc: 1, Index: 2, Page: 4, Read: mem.Bitmap{0x80, 0}},
			{Proc: 3, Index: 1, Page: 6, Write: mem.Bitmap{1}},
		}},
		&BitmapReply{Epoch: 5},
		&BarrierDone{Epoch: 2, Races: []race.Report{report}},
		&BarrierDone{Epoch: 3},
		&RelData{Seq: 42, Ack: 41, Payload: Marshal(&PageReq{Page: 1, Write: true})},
		&RelData{},
		&RelAck{Ack: 99},
		&ShardResult{Epoch: 2, Races: []race.Report{report}, BitmapsCompared: 12, WordOverlaps: 3},
		&ShardResult{Epoch: 5},
		&TreeReduce{Epoch: 3, VC: []uint32{9, 8, 7}, Intervals: []*interval.Record{sampleRecord(), bare},
			MinArr: 123456, Entries: []race.CheckEntry{check},
			PairComparisons: 40, ConcurrentPairs: 7, OverlappingPairs: 2, NoticesScanned: 31},
		&TreeReduce{Epoch: 5, MinArr: -1},
	}
}

// TestWireBytesPinned holds every corpus message's encoding to
// testdata/wire_pins.txt byte for byte, so a codec edit that moves the wire
// fails here. Rewrite the pins (-update-pins) only for a change meant to
// alter the wire format.
func TestWireBytesPinned(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Marshal output of the msg test corpus (wireCorpus), one message per line.\n")
	b.WriteString("# Rewrite with: go test ./internal/msg -run TestWireBytesPinned -update-pins\n")
	seen := map[Type]bool{}
	for _, m := range wireCorpus() {
		seen[m.Type()] = true
		fmt.Fprintf(&b, "%v %x\n", m.Type(), Marshal(m))
	}
	for ty := TInvalid + 1; int(ty) < NumTypes; ty++ {
		if !seen[ty] {
			t.Errorf("the corpus has no %v", ty)
		}
	}
	path := filepath.Join("testdata", "wire_pins.txt")
	if *updatePins {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s:%d:\n got %s\nwant %s", path, i+1, g, w)
		}
	}
}

package dsm

import (
	"fmt"
	"strings"
	"testing"

	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/race"
	"lrcrace/internal/simnet"
	"lrcrace/internal/vc"
)

// TestBitmapReplyValidated: a process returns bitmaps of its own intervals
// only, each (interval, page) once, in (index, page) order. A reply that
// names another process's interval, a process out of range, one (interval,
// page) twice, or entries out of order is a protocol bug at the owner that
// receives it, not an entry that silently replaces or hides another.
func TestBitmapReplyValidated(t *testing.T) {
	s, err := New(Config{NumProcs: 2, SharedSize: 2 * mem.DefaultPageSize, Detect: true})
	if err != nil {
		t.Fatal(err)
	}
	bm := mem.NewBitmap(s.layout.WordsPerPage())
	own := msg.BitmapEntry{Proc: 1, Index: 1, Page: 0, Write: bm}
	cases := []struct {
		name    string
		entries []msg.BitmapEntry
		want    string
	}{
		{"another process's interval", []msg.BitmapEntry{own, {Proc: 0, Index: 1, Page: 0, Write: bm}},
			"BitmapReply from p1 carries a bitmap of interval (0, 1) page 0"},
		{"process out of range", []msg.BitmapEntry{{Proc: 7, Index: 1, Page: 0, Read: bm}},
			"BitmapReply from p1 carries a bitmap of interval (7, 1) page 0"},
		{"repeated interval and page", []msg.BitmapEntry{own, {Proc: 1, Index: 1, Page: 0, Read: bm}},
			"BitmapReply from p1 carries interval (1, 1) page 0 twice"},
		{"out of order", []msg.BitmapEntry{{Proc: 1, Index: 2, Page: 0, Read: bm}, own},
			"BitmapReply from p1 carries interval (1, 1) page 0 out of order"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := newProc(s, 0)
			rel := &msg.BarrierRelease{NeedBitmaps: true, Check: []race.CheckEntry{
				{A: vc.IntervalID{Proc: 0, Index: 1}, B: vc.IntervalID{Proc: 1, Index: 1}, Page: 0},
			}}
			p.openCheckRound(simnet.Delivery{From: 0, Msg: rel}, rel)
			mine := &msg.BitmapReply{}
			p.shardBitmap(simnet.Delivery{From: 0, Msg: mine}, mine)
			bad := &msg.BitmapReply{Entries: c.entries}
			got := func() (r any) {
				defer func() { r = recover() }()
				p.shardBitmap(simnet.Delivery{From: 1, Msg: bad}, bad)
				return nil
			}()
			if s := fmt.Sprint(got); !strings.Contains(s, "protocol bug: "+c.want) {
				t.Errorf("owner accepted the reply: panic %q, want a protocol bug %q", s, c.want)
			}
		})
	}
}

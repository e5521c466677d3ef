package dsm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/simnet"
)

// TestPageSizeMustBePowerOfTwo: page arithmetic is shifts and masks, so a
// page size that is not a power of two is a configuration error, reported
// by Validate and New rather than by a panic at the first access.
func TestPageSizeMustBePowerOfTwo(t *testing.T) {
	for _, tc := range []struct {
		pageSize int
		ok       bool
	}{
		{0, true}, {256, true}, {512, true}, {1024, true}, {8192, true},
		{24, false}, {8200, false}, {3000, false}, {4, false}, {-1024, false},
	} {
		t.Run(fmt.Sprint(tc.pageSize), func(t *testing.T) {
			cfg := Config{NumProcs: 2, SharedSize: 64 * 1024, PageSize: tc.pageSize}
			if err := cfg.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate: %v, want ok = %v", err, tc.ok)
			}
			s, err := New(cfg)
			if (err == nil) != tc.ok {
				t.Fatalf("New: %v, want ok = %v", err, tc.ok)
			}
			if !tc.ok {
				if !strings.Contains(err.Error(), "power of two") {
					t.Errorf("New: %v, want the error to say the page size must be a power of two", err)
				}
				return
			}
			a, err := s.AllocWords("x", 2*s.Layout().WordsPerPage())
			if err != nil {
				t.Fatal(err)
			}
			last := a + mem.Addr(s.Layout().PageSize+8)
			if err := s.Run(func(p *Proc) {
				if p.ID() == 1 {
					p.Write(last, 7)
				}
				p.Barrier()
				if v := p.Read(last); v != 7 {
					panic(fmt.Sprintf("proc %d read %d, want 7", p.ID(), v))
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// resizeReplies is a transport that changes the length of every PageReply
// it delivers by delta bytes.
type resizeReplies struct {
	Transport
	delta int
}

func (r resizeReplies) Next() (int, simnet.Delivery, error) {
	to, d, err := r.Transport.Next()
	if rep, ok := d.Msg.(*msg.PageReply); ok && err == nil {
		if r.delta < 0 {
			rep.Data = rep.Data[:len(rep.Data)+r.delta]
		} else {
			rep.Data = append(rep.Data, make([]byte, r.delta)...)
		}
	}
	return to, d, err
}

// TestFetchRejectsWrongLengthReply: a page reply that is not one page long
// is a protocol bug naming the page and both lengths — not a short copy
// that keeps the old tail of the page, nor a truncated long one.
func TestFetchRejectsWrongLengthReply(t *testing.T) {
	for _, delta := range []int{-8, 8} {
		t.Run(fmt.Sprintf("%+d", delta), func(t *testing.T) { testWrongLengthReply(t, delta) })
	}
}

func testWrongLengthReply(t *testing.T, delta int) {
	bothProtocols(t, func(t *testing.T, proto ProtocolKind) {
		cfg := smallConfig(2, proto, false)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.wrapNet = func(nw Transport) Transport { return resizeReplies{nw, delta} }
		err = s.Run(func(p *Proc) {
			if p.ID() == 1 {
				p.Read(s.Layout().PageBase(2)) // homed at process 0
			}
		})
		want := fmt.Sprintf("page 2 answered with %d bytes, page size is %d", cfg.PageSize+delta, cfg.PageSize)
		if err == nil || !strings.Contains(err.Error(), "protocol bug") || !strings.Contains(err.Error(), want) {
			t.Fatalf("Run = %v, want a protocol bug containing %q", err, want)
		}
	})
}

// TestFetchedPageSharesNothing: a fetched page becomes the receiver's own
// frame. After the fetch, a write at the receiver does not change the
// home's bytes and a write at the home does not change the receiver's —
// whether the home had a frame for the page or served the zero page.
func TestFetchedPageSharesNothing(t *testing.T) {
	bothProtocols(t, func(t *testing.T, proto ProtocolKind) {
		s := newSys(t, 2, proto, false)
		l := s.Layout()
		written, untouched := l.PageBase(2), l.PageBase(4) // both homed at process 0
		if err := s.Run(func(p *Proc) {
			if p.ID() == 0 {
				p.Write(written, 5)
			}
			p.Barrier()
			if p.ID() == 1 {
				if v := p.Read(written); v != 5 {
					panic(fmt.Sprintf("read %d, want 5", v))
				}
				p.Read(untouched)
			}
		}); err != nil {
			t.Fatal(err)
		}
		home, recv := s.procs[0], s.procs[1]
		for _, a := range []mem.Addr{written, untouched} {
			pg := l.Page(a)
			if recv.state[pg] == pageInvalid {
				t.Fatalf("page %d not resident at the receiver", pg)
			}
			want := home.seg.Word(a)
			recv.seg.SetWord(a, 0xdead)
			if got := home.seg.Word(a); got != want {
				t.Errorf("page %d: a write at the receiver changed the home's word to %#x", pg, got)
			}
			if pg == l.Page(untouched) && !bytes.Equal(home.seg.PageView(pg), make([]byte, l.PageSize)) {
				t.Errorf("page %d: a write at the receiver reached the home's zero page", pg)
			}
			home.seg.SetWord(a+8, 0xbeef)
			if got := recv.seg.Word(a + 8); got != 0 {
				t.Errorf("page %d: a write at the home changed the receiver's word to %#x", pg, got)
			}
		}
	})
}

package dsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/simnet"
)

// TestPageSizeFitsAChunk: a checkpoint stores each page copy as one chunk,
// so a checkpointing run rejects pages longer than a chunk may be.
func TestPageSizeFitsAChunk(t *testing.T) {
	cfg := Config{NumProcs: 2, SharedSize: 1 << 25, PageSize: 1 << 24}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "checkpoint chunk") {
		t.Fatalf("Validate of %d-byte pages: %v, want the chunk limit", cfg.PageSize, err)
	}
	cfg.NoCheckpoint = true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate of %d-byte pages without checkpoints: %v", cfg.PageSize, err)
	}
}

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
		// Change the length of every PageReply before it is handled.
		s.seeDelivery = func(_ int, d simnet.Delivery) {
			if rep, ok := d.Msg.(*msg.PageReply); ok {
				if delta < 0 {
					rep.Data = rep.Data[:len(rep.Data)+delta]
				} else {
					rep.Data = append(rep.Data, make([]byte, delta)...)
				}
			}
		}
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

// TestDiffPageMatchesWordLoop: diffPage, which skips blocks that did not
// change, returns exactly what comparing every word does, on random
// page/twin pairs of every page size from one word to 4 KiB, with
// differences in the first word, the last word, across a block boundary,
// and in random words.
func TestDiffPageMatchesWordLoop(t *testing.T) {
	wordLoop := func(page, twin []byte) []msg.DiffEntry {
		var out []msg.DiffEntry
		for off := 0; off < len(page); off += mem.WordSize {
			if a := binary.LittleEndian.Uint64(page[off:]); a != binary.LittleEndian.Uint64(twin[off:]) {
				out = append(out, msg.DiffEntry{Word: uint32(off / mem.WordSize), Val: a})
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(1))
	for size := mem.WordSize; size <= 4096; size *= 2 {
		words := size / mem.WordSize
		for trial := 0; trial < 200; trial++ {
			twin := make([]byte, size)
			rng.Read(twin)
			page := slices.Clone(twin)
			flip := func(w int) { page[w*mem.WordSize+rng.Intn(mem.WordSize)] ^= byte(1 + rng.Intn(255)) }
			switch trial % 5 {
			case 0:
				flip(0)
			case 1:
				flip(words - 1)
			case 2:
				flip(0)
				flip(words - 1)
			case 3:
				if w := diffBlock / mem.WordSize; w < words {
					flip(w - 1)
					flip(w)
				}
			}
			for k := rng.Intn(4); k > 0; k-- {
				flip(rng.Intn(words))
			}
			if got, want := diffPage(nil, page, twin), wordLoop(page, twin); !slices.Equal(got, want) {
				t.Fatalf("size %d trial %d: diffPage %v, word loop %v", size, trial, got, want)
			}
		}
	}
}

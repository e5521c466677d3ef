package mem

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// TestFrameSizes: GetFrame returns exactly n bytes of n's own capacity,
// pooled size or not, and PutFrame recycles — and in a test binary poisons
// — only the pooled powers of two.
func TestFrameSizes(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pooled bool
	}{
		{WordSize, true}, {256, true}, {DefaultPageSize, true}, {1 << maxFrameShift, true},
		{0, false}, {1, false}, {4, false}, {24, false}, {1000, false}, {DefaultPageSize + WordSize, false}, {1 << (maxFrameShift + 1), false},
	} {
		b := GetFrame(tc.n)
		if len(b) != tc.n || cap(b) != tc.n {
			t.Errorf("GetFrame(%d): len %d cap %d", tc.n, len(b), cap(b))
		}
		clear(b)
		PutFrame(b)
		// Reading b after PutFrame is what callers must not do; it shows
		// here whether PutFrame took the buffer.
		if poisoned := tc.n > 0 && !bytes.Equal(b, make([]byte, tc.n)); poisoned != tc.pooled {
			t.Errorf("PutFrame of %d bytes: poisoned %v, want %v", tc.n, poisoned, tc.pooled)
		}
	}
	if !poisonFrames {
		t.Error("test binaries must poison recycled frames")
	}
}

// TestFramePoolSharesNothing: goroutines that each take a frame, fill it
// with their own pattern, yield and check it before recycling it never see
// another's bytes — a frame is handed out to one owner at a time. Run it
// under -race.
func TestFramePoolSharesNothing(t *testing.T) {
	const workers, rounds = 4, 500
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			want := bytes.Repeat([]byte{id}, 512)
			for r := 0; r < rounds; r++ {
				b := GetFrame(len(want))
				copy(b, want)
				runtime.Gosched()
				if !bytes.Equal(b, want) {
					errs <- "a frame changed while its owner held it"
					return
				}
				PutFrame(b)
			}
		}(byte(w + 1))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSegmentRecyclesFrames: a frame AdoptPage replaces and the frames
// Release drops go back to the pool (poisoned in a test binary); a frame
// adopted again in place is kept; PageBytes hands out a zeroed frame even
// when the pool's is not.
func TestSegmentRecyclesFrames(t *testing.T) {
	l, _ := NewLayout(4*256, 256)
	s := NewSegment(l)
	old := s.PageBytes(1)
	old[0] = 1
	s.AdoptPage(1, old)
	if old[0] != 1 || s.Word(l.PageBase(1)) != 1 {
		t.Fatal("re-adopting a page's own frame recycled it")
	}
	fresh := make([]byte, 256)
	fresh[0] = 2
	s.AdoptPage(1, fresh)
	if old[0] == 1 {
		t.Error("the frame AdoptPage replaced was not recycled")
	}
	if s.Word(l.PageBase(1)) != 2 {
		t.Errorf("adopted page reads %d, want 2", s.Word(l.PageBase(1)))
	}
	s.SetWord(l.PageBase(2), 3)
	s.Release()
	if s.Resident() != 0 || s.Word(l.PageBase(1)) != 0 || s.Word(l.PageBase(2)) != 0 {
		t.Errorf("after Release: %d frames, words %d %d; want none, zeros", s.Resident(), s.Word(l.PageBase(1)), s.Word(l.PageBase(2)))
	}
	if fresh[0] == 2 {
		t.Error("Release did not recycle the frames")
	}
	for pg := PageID(0); int(pg) < l.NumPages; pg++ {
		if !bytes.Equal(s.PageBytes(pg), make([]byte, 256)) {
			t.Fatalf("PageBytes(%d) after recycling: not zeroed", pg)
		}
	}
}

// TestWriteAfterPutPanics: in a test binary, GetFrame refuses a recycled
// frame that someone wrote after PutFrame took it, so a stale owner's
// write fails the run that made it. The size is one no other test uses, so
// a frame the pool did not hand straight back bothers no one.
func TestWriteAfterPutPanics(t *testing.T) {
	const n = 1 << 17
	for try := 0; try < 100; try++ {
		b := GetFrame(n)
		PutFrame(b)
		b[n-1] ^= 1 // the stale write
		c, err := func() (c []byte, err any) {
			defer func() { err = recover() }()
			return GetFrame(n), nil
		}()
		if err != nil {
			return
		}
		if &c[0] == &b[0] {
			t.Fatal("GetFrame handed out a frame written after PutFrame")
		}
		PutFrame(c)
	}
	t.Fatal("the pool never handed the written frame back")
}

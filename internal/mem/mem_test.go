package mem

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewLayoutValidation(t *testing.T) {
	if _, err := NewLayout(100, 0); err == nil {
		t.Error("zero page size accepted")
	}
	if _, err := NewLayout(100, 12); err == nil {
		t.Error("page size not multiple of word size accepted")
	}
	if _, err := NewLayout(0, 64); err == nil {
		t.Error("zero segment size accepted")
	}
	l, err := NewLayout(100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumPages != 2 {
		t.Errorf("NumPages = %d, want 2 (rounded up)", l.NumPages)
	}
	if l.Size() != 128 {
		t.Errorf("Size = %d, want 128", l.Size())
	}
}

func TestLayoutGeometry(t *testing.T) {
	l, _ := NewLayout(4*DefaultPageSize, DefaultPageSize)
	if l.WordsPerPage() != 1024 {
		t.Errorf("WordsPerPage = %d, want 1024", l.WordsPerPage())
	}
	a := Addr(DefaultPageSize + 3*WordSize)
	if l.Page(a) != 1 {
		t.Errorf("Page(%d) = %d, want 1", a, l.Page(a))
	}
	if l.WordInPage(a) != 3 {
		t.Errorf("WordInPage(%d) = %d, want 3", a, l.WordInPage(a))
	}
	if l.PageBase(2) != Addr(2*DefaultPageSize) {
		t.Errorf("PageBase(2) = %d", l.PageBase(2))
	}
	if !l.Contains(Addr(l.Size() - WordSize)) {
		t.Error("last word reported outside segment")
	}
	if l.Contains(Addr(l.Size())) {
		t.Error("address past end reported inside segment")
	}
}

func TestSegmentWordRoundTrip(t *testing.T) {
	l, _ := NewLayout(2*DefaultPageSize, DefaultPageSize)
	s := NewSegment(l)
	vals := map[Addr]uint64{
		0:                  0xdeadbeefcafef00d,
		8:                  1,
		Addr(l.Size() - 8): ^uint64(0),
	}
	for a, v := range vals {
		s.SetWord(a, v)
	}
	for a, v := range vals {
		if got := s.Word(a); got != v {
			t.Errorf("Word(%d) = %#x, want %#x", a, got, v)
		}
	}
}

func TestSegmentPageCopy(t *testing.T) {
	l, _ := NewLayout(2*256, 256)
	s := NewSegment(l)
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	s.AdoptPage(1, src)
	if s.Word(256) != 0x0706050403020100 {
		t.Errorf("word after AdoptPage = %#x", s.Word(256))
	}
	got := s.PageBytes(1)
	for i := range src {
		if got[i] != byte(i) {
			t.Fatalf("PageBytes[%d] = %d, want %d", i, got[i], i)
		}
	}
	// Page 0 untouched.
	if s.Word(0) != 0 {
		t.Errorf("page 0 corrupted: %#x", s.Word(0))
	}
}

// TestNewLayoutPageSizes: page arithmetic is shifts and masks, so a page
// size must be a power of two (and hold at least one word).
func TestNewLayoutPageSizes(t *testing.T) {
	for _, tc := range []struct {
		pageSize int
		ok       bool
	}{
		{256, true}, {512, true}, {1024, true}, {8192, true}, {WordSize, true},
		{24, false}, {8200, false}, {12, false}, {4, false}, {0, false}, {-8, false}, {3 * 1024, false},
	} {
		l, err := NewLayout(64*1024, tc.pageSize)
		if (err == nil) != tc.ok {
			t.Errorf("NewLayout(64 KiB, %d): err = %v, want ok = %v", tc.pageSize, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		// Shift arithmetic agrees with division on every word of a few pages.
		for a := Addr(0); a < Addr(4*tc.pageSize) && l.Contains(a); a += WordSize {
			if pg, w := l.Page(a), l.WordInPage(a); int(pg) != int(a)/tc.pageSize || w != int(a)%tc.pageSize/WordSize {
				t.Fatalf("page size %d, addr %d: Page/WordInPage = %d/%d", tc.pageSize, a, pg, w)
			}
			if base := l.PageBase(l.Page(a)); int(base) != int(a)/tc.pageSize*tc.pageSize {
				t.Fatalf("page size %d, addr %d: PageBase = %d", tc.pageSize, a, base)
			}
		}
	}
}

// TestSegmentFramesOnDemand: a page has a frame only once it is written or
// adopted; until then it reads as zero, and viewing it allocates none.
func TestSegmentFramesOnDemand(t *testing.T) {
	l, _ := NewLayout(4*256, 256)
	s := NewSegment(l)
	if s.Resident() != 0 {
		t.Fatalf("new segment has %d frames, want 0", s.Resident())
	}
	if v := s.Word(l.PageBase(2) + 8); v != 0 {
		t.Errorf("untouched page reads %#x, want 0", v)
	}
	view := s.PageView(2)
	if len(view) != 256 || cap(view) != 256 || !bytes.Equal(view, make([]byte, 256)) {
		t.Errorf("view of an untouched page: len %d cap %d, not all zero", len(view), cap(view))
	}
	if s.Resident() != 0 {
		t.Fatalf("reading and viewing allocated %d frames, want 0", s.Resident())
	}
	s.SetWord(l.PageBase(1)+16, 7)
	if s.Resident() != 1 || s.Word(l.PageBase(1)+16) != 7 {
		t.Fatalf("after one write: %d frames, word %d; want 1 frame, word 7", s.Resident(), s.Word(l.PageBase(1)+16))
	}
	if n := testing.AllocsPerRun(100, func() { s.SetWord(l.PageBase(1)+24, s.Word(l.PageBase(1))+1) }); n != 0 {
		t.Errorf("access to a page with a frame: %v allocs, want 0", n)
	}

	b := make([]byte, 256)
	b[0] = 9
	s.AdoptPage(3, b)
	if s.Resident() != 2 || s.Word(l.PageBase(3)) != 9 {
		t.Fatalf("after AdoptPage: %d frames, word %d; want 2 frames, word 9", s.Resident(), s.Word(l.PageBase(3)))
	}
	s.SetWord(l.PageBase(3)+8, 5)
	if &s.PageBytes(3)[0] != &b[0] || b[8] != 5 {
		t.Error("AdoptPage copied the slice instead of keeping it")
	}
	for _, n := range []int{0, 255, 257, 512} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AdoptPage of %d bytes did not panic", n)
				}
			}()
			s.AdoptPage(0, make([]byte, n))
		}()
	}
	if s.Resident() != 2 {
		t.Errorf("a rejected AdoptPage installed a frame: %d frames", s.Resident())
	}
}

func TestPropertyWordRoundTrip(t *testing.T) {
	l, _ := NewLayout(DefaultPageSize, DefaultPageSize)
	s := NewSegment(l)
	f := func(w uint16, v uint64) bool {
		a := Addr(int(w) % l.WordsPerPage() * WordSize)
		s.SetWord(a, v)
		return s.Word(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(1024)
	if len(b) != 16 {
		t.Errorf("len = %d, want 16", len(b))
	}
	if !b.Empty() {
		t.Error("new bitmap not empty")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(1023)
	for _, w := range []int{0, 63, 64, 1023} {
		if !b.Get(w) {
			t.Errorf("Get(%d) = false", w)
		}
	}
	if b.Get(1) || b.Get(512) {
		t.Error("unset bits reported set")
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d, want 4", b.Count())
	}
	if b.Empty() {
		t.Error("non-empty bitmap reported empty")
	}
	b.Reset()
	if !b.Empty() {
		t.Error("Reset did not clear")
	}
}

func TestBitmapIntersectsAndOverlap(t *testing.T) {
	a := NewBitmap(256)
	b := NewBitmap(256)
	a.Set(5)
	a.Set(100)
	a.Set(200)
	b.Set(6)
	b.Set(100)
	b.Set(200)
	if !a.Intersects(b) {
		t.Error("overlapping bitmaps reported disjoint")
	}
	words := a.Overlap(b, nil)
	if len(words) != 2 || words[0] != 100 || words[1] != 200 {
		t.Errorf("Overlap = %v, want [100 200]", words)
	}

	c := NewBitmap(256)
	c.Set(7)
	if a.Intersects(c) {
		t.Error("disjoint bitmaps reported intersecting — false sharing misdiagnosed as race")
	}
	if w := a.Overlap(c, nil); len(w) != 0 {
		t.Errorf("Overlap of disjoint = %v", w)
	}
}

func TestBitmapOrClone(t *testing.T) {
	a := NewBitmap(128)
	b := NewBitmap(128)
	a.Set(1)
	b.Set(2)
	c := a.Clone()
	c.Or(b)
	if !c.Get(1) || !c.Get(2) {
		t.Error("Or missing bits")
	}
	if a.Get(2) {
		t.Error("Clone aliases original")
	}
}

// Property: Overlap(a,b) = exactly the set positions counted by popcount of
// the AND, and Intersects agrees with non-empty Overlap.
func TestPropertyOverlapConsistent(t *testing.T) {
	f := func(xs, ys [4]uint64) bool {
		a := Bitmap(xs[:])
		b := Bitmap(ys[:])
		words := a.Overlap(b, nil)
		n := 0
		for i := 0; i < 256; i++ {
			if a.Get(i) && b.Get(i) {
				if n >= len(words) || words[n] != i {
					return false
				}
				n++
			}
		}
		if n != len(words) {
			return false
		}
		return a.Intersects(b) == (len(words) > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestZeroPageShared: every frameless page of every segment with the same
// page size views one all-zero page, also when Systems on several
// goroutines make it at once; another page size has its own.
func TestZeroPageShared(t *testing.T) {
	small, _ := NewLayout(4*256, 256)
	big, _ := NewLayout(8*256, 256)
	a, b := NewSegment(small), NewSegment(big)
	va, vb := a.PageView(1), b.PageView(6)
	if &va[0] != &vb[0] {
		t.Error("two segments of one page size view different zero pages")
	}
	other, _ := NewLayout(4*512, 512)
	if v := NewSegment(other).PageView(0); len(v) != 512 || cap(v) != 512 || &v[0] == &va[0] {
		t.Errorf("a 512-byte segment's zero page: len %d cap %d, shared with 256-byte pages %v", len(v), cap(v), &v[0] == &va[0])
	}

	// A page size no other test uses, so the goroutines race to make it.
	const size = 1 << 17
	l, _ := NewLayout(2*size, size)
	views := make([]*byte, 8)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[i] = &NewSegment(l).PageView(1)[0]
		}()
	}
	wg.Wait()
	for i, v := range views {
		if v != views[0] {
			t.Fatalf("goroutine %d got a different %d-byte zero page", i, size)
		}
	}
	if !bytes.Equal(NewSegment(l).PageView(0), make([]byte, size)) {
		t.Fatal("shared zero page is not all zero")
	}
}

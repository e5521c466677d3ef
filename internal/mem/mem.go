// Package mem models the shared address space of the DSM: a paged segment
// of bytes, addressed by word, plus the word-granularity access bitmaps the
// race detector uses to distinguish false sharing from true sharing.
//
// Addresses are offsets into the shared segment, which in the paper is the
// dynamically allocated shared data region of the application (CVM allocates
// all shared memory dynamically, which is what allows ATOM to statically
// eliminate accesses through the static-data base register).
//
// A process's copy of the segment holds page frames on demand, as CVM maps
// a frame when the process first faults on the page: a page has no frame
// until it is first written or its contents arrive, and a page without one
// reads as zero.
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
)

const (
	// WordSize is the access granularity in bytes. The paper tracks
	// accesses "at the minimum granularity of data accesses, which is
	// typically a single word"; we use 8-byte words, the natural scalar
	// size on the Alpha and of float64, the dominant type in the
	// benchmark applications.
	WordSize = 8

	// DefaultPageSize mirrors the 8 KB pages of the DECstation Alphas used
	// in the paper ("the large page size of the DECstations").
	DefaultPageSize = 8192
)

// Addr is a byte offset into the shared segment.
type Addr uint64

// PageID numbers pages within the segment.
type PageID int32

// Layout describes the paging geometry of a segment.
type Layout struct {
	PageSize int // bytes per page; a power of two of at least WordSize
	NumPages int
	shift    uint // log2(PageSize)
}

// NewLayout validates and builds a layout covering size bytes. The page
// size must be a power of two, so that page arithmetic is shifts and masks.
func NewLayout(size, pageSize int) (Layout, error) {
	if pageSize < WordSize || pageSize&(pageSize-1) != 0 {
		return Layout{}, fmt.Errorf("mem: page size %d is not a power of two of at least %d", pageSize, WordSize)
	}
	if size <= 0 {
		return Layout{}, fmt.Errorf("mem: segment size %d not positive", size)
	}
	np := (size + pageSize - 1) / pageSize
	return Layout{PageSize: pageSize, NumPages: np, shift: uint(bits.TrailingZeros(uint(pageSize)))}, nil
}

// Size returns the total byte size of the segment.
func (l Layout) Size() int { return l.PageSize * l.NumPages }

// Page returns the page containing a.
func (l Layout) Page(a Addr) PageID { return PageID(a >> l.shift) }

// offset returns the byte offset of a within its page.
func (l Layout) offset(a Addr) int { return int(a & Addr(l.PageSize-1)) }

// WordInPage returns the word index of a within its page.
func (l Layout) WordInPage(a Addr) int { return l.offset(a) / WordSize }

// PageBase returns the address of the first byte of page p.
func (l Layout) PageBase(p PageID) Addr { return Addr(p) << l.shift }

// WordsPerPage returns the number of words per page.
func (l Layout) WordsPerPage() int { return l.PageSize / WordSize }

// Contains reports whether a names a word wholly inside the segment.
func (l Layout) Contains(a Addr) bool {
	return int(a)+WordSize <= l.Size()
}

// Segment is one process's local copy of the shared address space. Each DSM
// process holds its own Segment; coherence traffic (page fetches, diffs)
// moves bytes between them. It holds one frame per page, installed when the
// page is first needed: PageBytes takes one from the pool (GetFrame) and
// zeroes it, AdoptPage installs a caller's, and SetWord, for a caller that
// did neither, allocates a zeroed one. A page without a frame reads as
// zero.
//
// The segment owns its frames. A frame it gives up — replaced by
// AdoptPage, or dropped by Release at the end of its owner's life — goes
// back to the pool at once, so no one may keep a slice from PageBytes or
// PageView across an operation that can replace the frame. A frame's life
// is thus: GetFrame (or make) → this segment → PutFrame → the next
// GetFrame of its size.
type Segment struct {
	Layout
	frames [][]byte // one per page; nil until first needed
}

// NewSegment returns a segment with the given layout and no frames.
func NewSegment(l Layout) *Segment {
	return &Segment{Layout: l, frames: make([][]byte, l.NumPages)}
}

// Word reads the 8-byte word at a (little-endian).
func (s *Segment) Word(a Addr) uint64 {
	f := s.frames[s.Page(a)]
	if f == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(f[s.offset(a):])
}

// SetWord writes the 8-byte word at a (little-endian). A writer that wants
// the page's first frame from the pool installs it with PageBytes first
// (the DSM's write fault does); otherwise SetWord allocates a zeroed one
// with make, as the pool's call would make SetWord too costly to inline.
func (s *Segment) SetWord(a Addr, v uint64) {
	f := s.frames[s.Page(a)]
	if f == nil {
		f = make([]byte, s.PageSize)
		s.frames[s.Page(a)] = f
	}
	binary.LittleEndian.PutUint64(f[s.offset(a):], v)
}

// PageBytes returns the frame backing page p, installing a zeroed one from
// the pool if the page has none. The caller may write through it but must
// not retain it across coherence operations: AdoptPage replaces it.
func (s *Segment) PageBytes(p PageID) []byte {
	f := s.frames[p]
	if f == nil {
		f = GetFrame(s.PageSize)
		clear(f)
		s.frames[p] = f
	}
	return f
}

// PageView returns page p's contents for reading without allocating a
// frame: the frame, or the all-zero page of its size that every frameless
// page of every segment shares (zeroPage). The caller must not write
// through it.
func (s *Segment) PageView(p PageID) []byte {
	if f := s.frames[p]; f != nil {
		return f
	}
	return zeroPage(s.shift, s.PageSize)
}

// zeroPages holds one read-only all-zero page per page size, indexed by
// log2 of the size, made on first use. Segments of concurrent Systems
// share them, which is safe because no one writes through a PageView.
var zeroPages [64]atomic.Pointer[[]byte]

// zeroPage returns the shared all-zero page of 1<<shift = n bytes.
func zeroPage(shift uint, n int) []byte {
	if z := zeroPages[shift].Load(); z != nil {
		return *z
	}
	z := make([]byte, n)
	if zeroPages[shift].CompareAndSwap(nil, &z) {
		return z
	}
	return *zeroPages[shift].Load()
}

// AdoptPage makes b the frame of page p, without copying it; the segment
// owns b from then on, and the frame b replaces goes back to the pool
// (PutFrame). It panics unless len(b) is the page size.
func (s *Segment) AdoptPage(p PageID, b []byte) {
	if len(b) != s.PageSize {
		panic(fmt.Sprintf("mem: AdoptPage(%d) of %d bytes, page size is %d", p, len(b), s.PageSize))
	}
	if old := s.frames[p]; old != nil && &old[0] != &b[0] {
		PutFrame(old)
	}
	s.frames[p] = b
}

// Release returns every frame to the pool; each page then reads as zero.
// Call it only on a segment nothing will read again through a slice it
// handed out.
func (s *Segment) Release() {
	for p, f := range s.frames {
		if f != nil {
			PutFrame(f)
			s.frames[p] = nil
		}
	}
}

// Resident returns the number of pages that have a frame.
func (s *Segment) Resident() int {
	n := 0
	for _, f := range s.frames {
		if f != nil {
			n++
		}
	}
	return n
}

package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"testing"
	"unsafe"
)

// The frame pool recycles page-sized buffers — page frames, twins, fetched
// page images, checkpoint chunks — so a copy of a page that dies at the
// next coherence event is reused instead of left to the garbage
// collector. There is one sync.Pool per power-of-two size from one word
// to 1 MiB; every other length is allocated and dropped as usual.
const (
	minFrameShift = 3 // WordSize
	maxFrameShift = 20
)

var framePools [maxFrameShift + 1]sync.Pool // each holds the *byte of a frame's first byte

// poisonFrames makes PutFrame overwrite every buffer it recycles in test
// binaries, so a use after recycling reads wrong memory in every test
// instead of going unnoticed, and makes GetFrame check that a recycled
// buffer still holds that pattern, so a write after recycling panics at
// the next GetFrame of its size. Other binaries never poison: filling and
// checking every recycled buffer costs time on the protocol path.
var poisonFrames = testing.Testing()

// frameShift returns log2(n) if n is a pooled size.
func frameShift(n int) (int, bool) {
	if n <= 0 || n&(n-1) != 0 {
		return 0, false
	}
	k := bits.TrailingZeros(uint(n))
	return k, k >= minFrameShift && k <= maxFrameShift
}

// GetFrame returns a buffer of n bytes that the caller owns and whose
// contents are unspecified: one that PutFrame recycled, if n is a power of
// two and the pool holds one, and otherwise a new one.
func GetFrame(n int) []byte {
	if k, ok := frameShift(n); ok {
		if p, _ := framePools[k].Get().(*byte); p != nil {
			b := unsafe.Slice(p, n)
			if poisonFrames && !poisoned(b) {
				panic(fmt.Sprintf("mem: a recycled %d-byte frame was written after PutFrame returned it to the pool", n))
			}
			return b
		}
	}
	return make([]byte, n)
}

// PutFrame recycles b. The caller states that nothing references b any
// more — not itself, not a segment, message or chunk it handed b to — and
// must not touch b afterwards: the next GetFrame of its length may return
// it to someone else. b must be a whole buffer, as GetFrame or make
// returned it, not part of a larger one. A b whose length is not a pooled
// power of two is left to the garbage collector.
func PutFrame(b []byte) {
	k, ok := frameShift(len(b))
	if !ok {
		return
	}
	if poisonFrames {
		poison(b)
	}
	framePools[k].Put(unsafe.SliceData(b))
}

// poisonWord is the pattern poison repeats through a recycled buffer.
const poisonWord = 0xdeadbeef_a5c3_5a3c

// poison fills b (at least one word long) with poisonWord.
func poison(b []byte) {
	binary.LittleEndian.PutUint64(b, poisonWord)
	for i := WordSize; i < len(b); i *= 2 {
		copy(b[i:], b[:i])
	}
}

// poisoned reports whether b (a power of two of at least one word) still
// holds what poison wrote.
func poisoned(b []byte) bool {
	if binary.LittleEndian.Uint64(b) != poisonWord {
		return false
	}
	for i := WordSize; i < len(b); i *= 2 {
		if !bytes.Equal(b[i:2*i], b[:i]) {
			return false
		}
	}
	return true
}

// Package msg defines the wire messages of the DSM and race detector and a
// compact hand-rolled binary encoding for them.
//
// Every message really is serialized to bytes on send and parsed again on
// receive, so the byte counts the harness reports (e.g. the read-notice
// bandwidth overhead of Table 3) are measured from genuine encodings, not
// estimated. The encoding is little-endian and fixed-width; individual read
// and write notices have identical size (4 bytes), matching the paper's
// observation that "individual read and write notices are the same size".
package msg

import (
	"errors"

	"lrcrace/internal/mem"
	"lrcrace/internal/vc"
)

// ErrTruncated is returned when a decode runs past the end of the buffer.
var ErrTruncated = errors.New("msg: truncated message")

// ErrCorrupt is returned for structurally invalid payloads.
var ErrCorrupt = errors.New("msg: corrupt message")

// Encoder appends fixed-width little-endian fields to a buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder that appends to buf, so a caller that
// knows roughly how long the encoding will be can size it up front.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }
func (e *Encoder) U16(v uint16) {
	e.buf = append(e.buf, byte(v), byte(v>>8))
}
func (e *Encoder) U32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (e *Encoder) U64(v uint64) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Blob writes a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// VC writes a version vector.
func (e *Encoder) VC(v vc.VC) {
	e.U16(uint16(len(v)))
	for _, x := range v {
		e.U32(uint32(x))
	}
}

// IntervalID writes an interval identifier.
func (e *Encoder) IntervalID(id vc.IntervalID) {
	e.U16(uint16(id.Proc))
	e.U32(uint32(id.Index))
}

// Pages writes a page list. Each notice costs noticeSize bytes.
func (e *Encoder) Pages(ps []mem.PageID) {
	e.U32(uint32(len(ps)))
	for _, p := range ps {
		e.U32(uint32(p))
	}
}

// Bitmap writes an access bitmap (possibly nil).
func (e *Encoder) Bitmap(b mem.Bitmap) {
	e.U32(uint32(len(b)))
	for _, w := range b {
		e.U64(w)
	}
}

// NoticeSize is the encoded size in bytes of one read or write notice.
const NoticeSize = 4

// Decoder consumes fields written by Encoder.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// err2 reports whether decoding has failed or fewer than need bytes are
// left, recording ErrTruncated in the latter case.
func (d *Decoder) err2(need int) bool {
	if d.err != nil {
		return true
	}
	if d.off+need > len(d.buf) {
		d.err = ErrTruncated
		return true
	}
	return false
}

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Fail records err as the decoding error unless one is already recorded —
// for a caller whose checks on the decoded values fail — and turns every
// later read into a zero.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Done reports whether the whole buffer was consumed without error.
func (d *Decoder) Done() bool { return d.err == nil && d.off == len(d.buf) }

func (d *Decoder) U8() uint8 {
	if d.err2(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}
func (d *Decoder) U16() uint16 {
	if d.err2(2) {
		return 0
	}
	b := d.buf[d.off:]
	d.off += 2
	return uint16(b[0]) | uint16(b[1])<<8
}
func (d *Decoder) U32() uint32 {
	if d.err2(4) {
		return 0
	}
	b := d.buf[d.off:]
	d.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func (d *Decoder) U64() uint64 {
	if d.err2(8) {
		return 0
	}
	b := d.buf[d.off:]
	d.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Blob reads a length-prefixed byte slice into a buffer of its own, which
// the caller owns: it shares nothing with the decoded buffer. The buffer
// comes from the page-frame pool (mem.GetFrame), so a page image the
// receiver later drops can be recycled.
func (d *Decoder) Blob() []byte {
	n := int(d.U32())
	if d.err2(n) {
		return nil
	}
	b := mem.GetFrame(n)
	d.off += copy(b, d.buf[d.off:d.off+n]) // a copy, not zeroed first
	return b
}

// VC reads a version vector.
func (d *Decoder) VC() vc.VC { return d.vcFrom(nil, 1) }

// vcFrom reads a version vector into the front of *slab and advances *slab
// past it; a nil slab gives the vector its own allocation. A slab too short
// for the vector is replaced by one sized for left vectors of this length,
// but no larger than the rest of the buffer could fill, so a list of
// vectors that share one length decodes into one allocation. The vector's
// capacity ends at its length: an append to it reallocates instead of
// writing over the next vector in the slab.
func (d *Decoder) vcFrom(slab *vc.VC, left int) vc.VC {
	n := int(d.U16())
	if n > 1024 {
		d.Fail(ErrCorrupt)
	}
	if d.err2(4 * n) {
		return nil
	}
	if n == 0 {
		return vc.VC{}
	}
	var v vc.VC
	if slab == nil {
		v = make(vc.VC, n)
	} else {
		if len(*slab) < n {
			*slab = make(vc.VC, min(n*left, (len(d.buf)-d.off)/4))
		}
		v = (*slab)[:n:n]
		*slab = (*slab)[n:]
	}
	for i := range v {
		v[i] = vc.Index(d.U32())
	}
	return v
}

// IntervalID reads an interval identifier.
func (d *Decoder) IntervalID() vc.IntervalID {
	p := int(d.U16())
	i := vc.Index(d.U32())
	return vc.IntervalID{Proc: p, Index: i}
}

// Pages reads a page list.
func (d *Decoder) Pages() []mem.PageID {
	n := int(d.U32())
	if d.err2(n * NoticeSize) {
		return nil
	}
	if n == 0 {
		return nil
	}
	ps := make([]mem.PageID, n)
	for i := range ps {
		ps[i] = mem.PageID(d.U32())
	}
	return ps
}

// Bitmap reads an access bitmap.
func (d *Decoder) Bitmap() mem.Bitmap {
	n := int(d.U32())
	if d.err2(n * 8) {
		return nil
	}
	if n == 0 {
		return nil
	}
	b := make(mem.Bitmap, n)
	for i := range b {
		b[i] = d.U64()
	}
	return b
}

// Package trace implements the post-mortem race-detection pipeline the
// paper compares against (§7, the technique of Adve, Hill, Miller & Netzer):
// write every shared access and synchronization event to a trace log during
// the run, then analyze the log offline.
//
// The paper's contribution is precisely to make this pipeline unnecessary —
// "we are therefore able to perform all of the analysis online, and do away
// with trace logs, post-mortem analysis, and much of the overhead" — so this
// package exists as the measured baseline: the online detector and the
// post-mortem analyzer must find the same racy addresses on the same
// execution (asserted by test), while the trace's storage cost per access
// (benchmarked) is the price the online approach eliminates.
//
// The Writer plugs into the DSM as a Config.Tracer; the Analyzer replays a
// log through the happens-before reference detector.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"lrcrace/internal/hbdet"
	"lrcrace/internal/mem"
)

// Event kinds, one byte each on the wire.
const (
	evRead byte = iota + 1
	evWrite
	evAcquire
	evRelease
	evBarrierArrive
	evBarrierDepart
)

// magic identifies a trace stream; the byte after it is the format version.
var magic = []byte{'L', 'R', 'C', 'T'}

const version = 1

// eventSize is the fixed wire size of one event: kind(1) + proc(2) + arg(8).
const eventSize = 11

// Event is one decoded trace record.
type Event struct {
	Kind byte
	Proc int
	Arg  uint64 // address for accesses, lock id for acquire/release, epoch for barriers
}

// KindString names the event kind.
func (e Event) KindString() string {
	switch e.Kind {
	case evRead:
		return "read"
	case evWrite:
		return "write"
	case evAcquire:
		return "acquire"
	case evRelease:
		return "release"
	case evBarrierArrive:
		return "barrier-arrive"
	case evBarrierDepart:
		return "barrier-depart"
	}
	return fmt.Sprintf("kind(%d)", e.Kind)
}

// Writer serializes the execution's events to a log. It implements the
// dsm.Tracer interface, so attaching it is one Config field; the run calls
// it on its one thread, so it takes no lock. Writes are buffered; call
// Close (or Flush) before reading the log back.
type Writer struct {
	w      *bufio.Writer
	closer io.Closer
	events int64
	err    error
}

// NewWriter starts a trace log on w, emitting the header. If w is also an
// io.Closer, Close will close it.
func NewWriter(w io.Writer, nprocs int) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic); err != nil {
		return nil, err
	}
	hdr := []byte{version, 0, 0}
	binary.LittleEndian.PutUint16(hdr[1:], uint16(nprocs))
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	tw := &Writer{w: bw}
	if c, ok := w.(io.Closer); ok {
		tw.closer = c
	}
	return tw, nil
}

func (t *Writer) emit(kind byte, proc int, arg uint64) {
	if t.err != nil {
		return
	}
	var buf [eventSize]byte
	buf[0] = kind
	binary.LittleEndian.PutUint16(buf[1:], uint16(proc))
	binary.LittleEndian.PutUint64(buf[3:], arg)
	if _, err := t.w.Write(buf[:]); err != nil {
		t.err = err
		return
	}
	t.events++
}

// Read implements dsm.Tracer.
func (t *Writer) Read(proc int, addr mem.Addr) { t.emit(evRead, proc, uint64(addr)) }

// Write implements dsm.Tracer.
func (t *Writer) Write(proc int, addr mem.Addr) { t.emit(evWrite, proc, uint64(addr)) }

// Acquire implements dsm.Tracer.
func (t *Writer) Acquire(proc, lock int) { t.emit(evAcquire, proc, uint64(lock)) }

// Release implements dsm.Tracer.
func (t *Writer) Release(proc, lock int) { t.emit(evRelease, proc, uint64(lock)) }

// BarrierArrive implements dsm.Tracer.
func (t *Writer) BarrierArrive(proc int, epoch int32) {
	t.emit(evBarrierArrive, proc, uint64(uint32(epoch)))
}

// BarrierDepart implements dsm.Tracer.
func (t *Writer) BarrierDepart(proc int, epoch int32) {
	t.emit(evBarrierDepart, proc, uint64(uint32(epoch)))
}

// Events returns the number of events emitted so far.
func (t *Writer) Events() int64 {
	return t.events
}

// Bytes returns the log size so far, header included.
func (t *Writer) Bytes() int64 {
	return int64(len(magic)) + 3 + t.Events()*eventSize
}

// Flush drains buffered events to the underlying writer.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Close flushes and closes the underlying writer if it is closable.
func (t *Writer) Close() error {
	if err := t.Flush(); err != nil {
		return err
	}
	if t.closer != nil {
		return t.closer.Close()
	}
	return nil
}

// Reader iterates a trace log.
type Reader struct {
	r      *bufio.Reader
	nprocs int
}

// ErrBadTrace reports a malformed log.
var ErrBadTrace = errors.New("trace: malformed log")

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr := make([]byte, len(magic)+3)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadTrace, err)
	}
	for i, b := range magic {
		if hdr[i] != b {
			return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
		}
	}
	if hdr[len(magic)] != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, hdr[len(magic)])
	}
	nprocs := int(binary.LittleEndian.Uint16(hdr[len(magic)+1:]))
	if nprocs < 1 {
		return nil, fmt.Errorf("%w: nprocs = %d", ErrBadTrace, nprocs)
	}
	return &Reader{r: br, nprocs: nprocs}, nil
}

// NumProcs returns the process count from the header.
func (r *Reader) NumProcs() int { return r.nprocs }

// Next returns the next event, or io.EOF at a clean end of log.
func (r *Reader) Next() (Event, error) {
	var buf [eventSize]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		if err == io.EOF {
			return Event{}, io.EOF
		}
		return Event{}, fmt.Errorf("%w: truncated event: %v", ErrBadTrace, err)
	}
	e := Event{
		Kind: buf[0],
		Proc: int(binary.LittleEndian.Uint16(buf[1:])),
		Arg:  binary.LittleEndian.Uint64(buf[3:]),
	}
	if e.Kind < evRead || e.Kind > evBarrierDepart {
		return Event{}, fmt.Errorf("%w: unknown event kind %d", ErrBadTrace, e.Kind)
	}
	if e.Proc >= r.nprocs {
		return Event{}, fmt.Errorf("%w: event for proc %d of %d", ErrBadTrace, e.Proc, r.nprocs)
	}
	return e, nil
}

// Analyze replays a trace log through the happens-before detector and
// returns the racy addresses found — the post-mortem pipeline in one call.
func Analyze(r io.Reader) ([]mem.Addr, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	det := hbdet.New(tr.NumProcs())
	for {
		e, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch e.Kind {
		case evRead:
			det.Read(e.Proc, mem.Addr(e.Arg))
		case evWrite:
			det.Write(e.Proc, mem.Addr(e.Arg))
		case evAcquire:
			det.Acquire(e.Proc, int(e.Arg))
		case evRelease:
			det.Release(e.Proc, int(e.Arg))
		case evBarrierArrive:
			det.BarrierArrive(e.Proc, int32(uint32(e.Arg)))
		case evBarrierDepart:
			det.BarrierDepart(e.Proc, int32(uint32(e.Arg)))
		}
	}
	return det.RacyAddrs(), nil
}

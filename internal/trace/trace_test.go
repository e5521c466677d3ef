package trace

import (
	"bytes"
	"io"
	"testing"

	"lrcrace/internal/dsm"
	"lrcrace/internal/mem"
	"lrcrace/internal/race"
)

func TestHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 7)
	if err != nil {
		t.Fatal(err)
	}
	w.Read(3, 0x40)
	w.Write(6, 0x48)
	w.Acquire(0, 5)
	w.Release(0, 5)
	w.BarrierArrive(1, 9)
	w.BarrierDepart(1, 9)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Events() != 6 {
		t.Errorf("Events = %d", w.Events())
	}
	if w.Bytes() != int64(buf.Len()) {
		t.Errorf("Bytes() = %d, actual %d", w.Bytes(), buf.Len())
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumProcs() != 7 {
		t.Errorf("NumProcs = %d", r.NumProcs())
	}
	want := []Event{
		{evRead, 3, 0x40}, {evWrite, 6, 0x48},
		{evAcquire, 0, 5}, {evRelease, 0, 5},
		{evBarrierArrive, 1, 9}, {evBarrierDepart, 1, 9},
	}
	for i, we := range want {
		e, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if e != we {
			t.Errorf("event %d = %+v, want %+v", i, e, we)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX\x01\x02\x00"), // bad magic
		[]byte("LRCT\x09\x02\x00"), // bad version
		[]byte("LRCT\x01\x00\x00"), // nprocs 0
		append([]byte("LRCT\x01\x02\x00"), 0xEE, 1, 0),                 // unknown kind / truncated
		append([]byte("LRCT\x01\x02\x00"), make([]byte, eventSize)...), // kind 0
	}
	for i, b := range cases {
		r, err := NewReader(bytes.NewReader(b))
		if err != nil {
			continue // header rejected: fine
		}
		if _, err := r.Next(); err == nil || err == io.EOF && i >= 4 {
			t.Errorf("case %d accepted", i)
		}
	}
	// Out-of-range proc.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2)
	w.Read(5, 0) // proc 5 of 2
	w.Flush()
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("out-of-range proc accepted")
	}
}

// TestOnlineVsPostmortem is the §7 comparison: the online LRC-metadata
// detector and the post-mortem trace analysis of the same execution must
// flag the same racy addresses.
func TestOnlineVsPostmortem(t *testing.T) {
	var log bytes.Buffer
	const procs = 4
	tw, err := NewWriter(&log, procs)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dsm.New(dsm.Config{
		NumProcs:   procs,
		SharedSize: 8 * 1024,
		PageSize:   1024,
		Detect:     true,
		Tracer:     tw,
	})
	if err != nil {
		t.Fatal(err)
	}
	racy, _ := sys.AllocWords("racy", 1)
	locked, _ := sys.AllocWords("locked", 1)
	err = sys.Run(func(p *dsm.Proc) {
		for i := 0; i < 4; i++ {
			p.Lock(0)
			p.Write(locked, p.Read(locked)+1)
			p.Unlock(0)
			if p.ID()%2 == 0 {
				p.Write(racy, uint64(p.ID()))
			} else {
				_ = p.Read(racy)
			}
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	online := map[mem.Addr]bool{}
	for _, r := range race.DedupByAddr(sys.Races()) {
		online[r.Addr] = true
	}
	postmortem, err := Analyze(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(postmortem) != len(online) {
		t.Fatalf("post-mortem %v vs online %v", postmortem, keys(online))
	}
	for _, a := range postmortem {
		if !online[a] {
			t.Errorf("post-mortem-only address %#x", a)
		}
	}
	if !online[racy] {
		t.Error("the racy variable was not flagged at all")
	}

	// The paper's storage argument: the log costs eventSize bytes per
	// access — here a few KB for a toy run; for Table 3's access rates it
	// is tens of MB per second of execution, which the online approach
	// never materializes.
	if tw.Bytes() < int64(100*eventSize) {
		t.Errorf("trace suspiciously small: %d bytes", tw.Bytes())
	}
}

func keys(m map[mem.Addr]bool) []mem.Addr {
	var out []mem.Addr
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestWriterCloseClosesCloser verifies Close propagation.
func TestWriterCloseClosesCloser(t *testing.T) {
	cw := &closeCounter{}
	w, err := NewWriter(cw, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Read(0, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if cw.closed != 1 {
		t.Errorf("closed %d times", cw.closed)
	}
}

type closeCounter struct {
	bytes.Buffer
	closed int
}

func (c *closeCounter) Close() error {
	c.closed++
	return nil
}

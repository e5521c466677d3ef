package msg

import (
	"bytes"
	"slices"
	"testing"

	"lrcrace/internal/interval"
)

// FuzzUnmarshal: arbitrary bytes must never panic the decoder, and
// anything it accepts must re-encode to exactly the bytes it came from —
// decoding is canonical, so no two encodings mean the same message.
// AppendMarshal must add exactly Marshal's bytes after any prefix. A
// decoded message must share no memory with its input — overwriting the
// input leaves what the message encodes to unchanged, page images drawn
// from the frame pool included — and the records of a decoded list, which
// share slabs, must not share memory with each other: an append to one
// record's slices leaves every other record as it was.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range wireCorpus() {
		f.Add(Marshal(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data) // the fuzzer's input must not be written
		m, err := Unmarshal(in)
		if err != nil {
			return // rejected: fine
		}
		re := Marshal(m)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted %v %x re-encodes as %x", m.Type(), data, re)
		}
		for i := range in {
			in[i] = ^in[i]
		}
		if got := Marshal(m); !bytes.Equal(got, data) {
			t.Fatalf("%v: overwriting the decoded buffer changed the message: it re-encodes as %x, was %x", m.Type(), got, data)
		}
		prefix := data[: len(data)/2 : len(data)/2]
		if got, want := AppendMarshal(prefix, m), append(bytes.Clone(prefix), re...); !bytes.Equal(got, want) {
			t.Fatalf("AppendMarshal(%x, %v) = %x, want %x", prefix, m.Type(), got, want)
		}
		recs := records(m)
		for i, r := range recs {
			before := make([]*interval.Record, len(recs))
			for j, o := range recs {
				before[j] = o.Clone()
			}
			r.VC = append(r.VC, 0xBAD)
			r.WriteNotices = append(r.WriteNotices, -1)
			r.ReadNotices = append(r.ReadNotices, -1)
			for j, o := range recs {
				if j != i && !sameRecord(o, before[j]) {
					t.Fatalf("%v: appending to record %d changed record %d: %+v, was %+v", m.Type(), i, j, o, before[j])
				}
			}
		}
	})
}

// records returns the interval records m carries, if any.
func records(m Message) []*interval.Record {
	switch m := m.(type) {
	case *AcquireGrant:
		return m.Intervals
	case *BarrierArrive:
		return m.Intervals
	case *BarrierRelease:
		return m.Intervals
	case *TreeReduce:
		return m.Intervals
	}
	return nil
}

// sameRecord compares two records by value; slices.Equal counts a nil list
// equal to an empty one, as Clone makes empty lists nil.
func sameRecord(a, b *interval.Record) bool {
	return a.ID == b.ID && a.Epoch == b.Epoch && slices.Equal(a.VC, b.VC) &&
		slices.Equal(a.WriteNotices, b.WriteNotices) && slices.Equal(a.ReadNotices, b.ReadNotices)
}

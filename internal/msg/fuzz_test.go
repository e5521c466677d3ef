package msg

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal: arbitrary bytes must never panic the decoder, and
// anything it accepts must re-encode to exactly the bytes it came from —
// decoding is canonical, so no two encodings mean the same message.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range wireCorpus() {
		f.Add(Marshal(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return // rejected: fine
		}
		if re := Marshal(m); !bytes.Equal(re, data) {
			t.Fatalf("accepted %v %x re-encodes as %x", m.Type(), data, re)
		}
	})
}

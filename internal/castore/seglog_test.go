package castore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// openCollect opens the log in dir and collects every replayed payload.
func openCollect(t *testing.T, dir string, opts SegLogOptions) (*SegLog, [][]byte, *Truncation) {
	t.Helper()
	var got [][]byte
	l, trunc, err := OpenSegLog(dir, opts, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got, trunc
}

// openSmallSegs is openCollect with the log's segment size shrunk to
// segBytes, so a few appends force a rotation.
func openSmallSegs(t *testing.T, dir string, segBytes int64, opts SegLogOptions) (*SegLog, [][]byte, *Truncation) {
	t.Helper()
	l, got, trunc := openCollect(t, dir, opts)
	l.maxSeg = segBytes
	return l, got, trunc
}

func TestSegLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, got, trunc := openCollect(t, dir, SegLogOptions{})
	if len(got) != 0 || trunc != nil {
		t.Fatalf("fresh log replayed %d entries, trunc %v", len(got), trunc)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf(`{"seq":%d,"detail":"entry %d"}`, i+1, i))
		want = append(want, p)
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, trunc := openCollect(t, dir, SegLogOptions{})
	defer l2.Close()
	if trunc != nil {
		t.Fatalf("clean log truncated: %v", trunc)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("entry %d: %q, want %q", i, got[i], want[i])
		}
	}
	if st := l2.Stats(); st.Replayed != 100 {
		t.Fatalf("stats replayed %d, want 100", st.Replayed)
	}
}

func TestSegLogRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openSmallSegs(t, dir, 128, SegLogOptions{SyncEvery: -1})
	for i := 0; i < 50; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	l.Close()

	l2, got, trunc := openSmallSegs(t, dir, 128, SegLogOptions{})
	defer l2.Close()
	if trunc != nil {
		t.Fatalf("rotated log truncated: %v", trunc)
	}
	if len(got) != 50 {
		t.Fatalf("replayed %d entries across segments, want 50", len(got))
	}
	for i, p := range got {
		if want := fmt.Sprintf("payload-%03d", i); string(p) != want {
			t.Fatalf("entry %d = %q, want %q", i, p, want)
		}
	}
	// Appends continue in the highest segment after reopen.
	if _, err := l2.Append([]byte("after-reopen")); err != nil {
		t.Fatal(err)
	}
}

// lastSegment returns the path of the highest-indexed segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	idxs, err := segIndexes(dir)
	if err != nil || len(idxs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return filepath.Join(dir, segName(idxs[len(idxs)-1]))
}

func TestSegLogTamperedTailTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openCollect(t, dir, SegLogOptions{})
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("entry-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Flip a payload bit inside the final entry.
	path := lastSegment(t, dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, got, trunc := openCollect(t, dir, SegLogOptions{})
	if trunc == nil {
		t.Fatal("tampered tail replayed without a truncation report")
	}
	if len(got) != 9 {
		t.Fatalf("replayed %d entries after tamper, want 9 (the verifiable prefix)", len(got))
	}
	if !strings.Contains(trunc.Reason, "corrupt") {
		t.Errorf("truncation reason %q does not name the corruption", trunc.Reason)
	}
	if trunc.DroppedBytes <= 0 {
		t.Errorf("truncation dropped %d bytes, want > 0", trunc.DroppedBytes)
	}
	// The log stays usable: append lands after the verified prefix and a
	// clean reopen sees 9 + 1 entries.
	if _, err := l2.Append([]byte("after-truncation")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, got, trunc := openCollect(t, dir, SegLogOptions{})
	defer l3.Close()
	if trunc != nil {
		t.Fatalf("log still truncating after heal: %v", trunc)
	}
	if len(got) != 10 || string(got[9]) != "after-truncation" {
		t.Fatalf("post-heal replay = %d entries (last %q), want 10 ending in the new append", len(got), got[len(got)-1])
	}
}

func TestSegLogTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openCollect(t, dir, SegLogOptions{})
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("entry-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Cut the file mid-entry, as a crash mid-write would.
	path := lastSegment(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	l2, got, trunc := openCollect(t, dir, SegLogOptions{})
	defer l2.Close()
	if trunc == nil || len(got) != 4 {
		t.Fatalf("torn tail: %d entries, trunc %v; want 4 entries and a truncation", len(got), trunc)
	}
}

func TestSegLogRejectedEntryTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openCollect(t, dir, SegLogOptions{})
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("entry-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// A consumer that cannot decode an otherwise well-hashed entry cuts
	// the log there, exactly like corruption.
	n := 0
	_, trunc, err := OpenSegLog(dir, SegLogOptions{}, func(p []byte) error {
		n++
		if n == 3 {
			return fmt.Errorf("undecodable")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if trunc == nil || !strings.Contains(trunc.Reason, "undecodable") {
		t.Fatalf("rejected entry produced truncation %v, want reason naming the rejection", trunc)
	}
}

func TestSegLogSegmentGapTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openSmallSegs(t, dir, 64, SegLogOptions{SyncEvery: -1})
	for i := 0; i < 30; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	idxs, _ := segIndexes(dir)
	if len(idxs) < 3 {
		t.Fatalf("need >= 3 segments for a gap, have %d", len(idxs))
	}
	if err := os.Remove(filepath.Join(dir, segName(idxs[1]))); err != nil {
		t.Fatal(err)
	}
	l2, got, trunc := openSmallSegs(t, dir, 64, SegLogOptions{})
	defer l2.Close()
	if trunc == nil || !strings.Contains(trunc.Reason, "segment gap") {
		t.Fatalf("gap replay returned truncation %v, want a segment-gap reason", trunc)
	}
	// Only the first segment's entries survive.
	for i, p := range got {
		if want := fmt.Sprintf("payload-%03d", i); string(p) != want {
			t.Fatalf("entry %d = %q, want %q", i, p, want)
		}
	}
}

func TestSegLogSyncCadence(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openCollect(t, dir, SegLogOptions{SyncEvery: 5})
	for i := 0; i < 12; i++ {
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Fsyncs != 2 {
		t.Fatalf("12 appends at SyncEvery=5 issued %d fsyncs, want 2", st.Fsyncs)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Fsyncs != 3 {
		t.Fatalf("manual Sync did not flush the remainder: %d fsyncs", st.Fsyncs)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Fsyncs != 3 {
		t.Fatalf("no-op Sync still fsynced: %d", st.Fsyncs)
	}
	l.Close()
}

// TestSegLogConcurrentSyncRotate runs appends, unlocked Syncs, and
// rotation (a 64-byte segment limit rotates every few entries) at once:
// every entry replays afterwards, and no fsync is counted that did not
// cover a new append or seal a segment.
func TestSegLogConcurrentSyncRotate(t *testing.T) {
	const (
		appenders = 4
		perApp    = 100
	)
	dir := t.TempDir()
	l, _, _ := openSmallSegs(t, dir, 64, SegLogOptions{SyncEvery: -1})
	stop := make(chan struct{})
	var syncers sync.WaitGroup
	for i := 0; i < 2; i++ {
		syncers.Add(1)
		go func() {
			defer syncers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := l.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perApp; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("a%d-%03d", a, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	close(stop)
	syncers.Wait()
	check := func(when string) {
		st := l.Stats()
		if rotations := int64(st.Segments - 1); st.Fsyncs > st.Appended+rotations {
			t.Fatalf("%s: %d fsyncs for %d appends and %d rotations", when, st.Fsyncs, st.Appended, rotations)
		}
	}
	check("before Close")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check("after Close")

	l2, got, trunc := openSmallSegs(t, dir, 64, SegLogOptions{})
	defer l2.Close()
	if trunc != nil {
		t.Fatalf("concurrently written log truncated: %v", trunc)
	}
	seen := map[string]bool{}
	for _, p := range got {
		seen[string(p)] = true
	}
	if len(got) != appenders*perApp || len(seen) != len(got) {
		t.Fatalf("replayed %d entries (%d distinct), want %d", len(got), len(seen), appenders*perApp)
	}
}

// FuzzSegLogReplay: replay must take any segment file — whatever the
// bytes, OpenSegLog keeps the verifiable prefix, cuts the rest, and returns
// no error — and the cut must heal: appending x and reopening replays the
// same prefix plus x, with nothing left to cut.
func FuzzSegLogReplay(f *testing.F) {
	dir := f.TempDir()
	l, _, err := OpenSegLog(dir, SegLogOptions{}, func([]byte) error { return nil })
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("entry-%d", i))); err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg, []byte("x"))
	f.Add(seg[:len(seg)-3], []byte("x"))
	flipped := append([]byte(nil), seg...)
	flipped[len(seg)/2] ^= 0x40
	f.Add(flipped, []byte("x"))

	noSync := func(*os.File) error { return nil }
	f.Fuzz(func(t *testing.T, data, x []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, prefix, _ := openCollect(t, dir, SegLogOptions{})
		l.SetSyncFunc(noSync)
		if _, err := l.Append(x); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, got, trunc := openCollect(t, dir, SegLogOptions{})
		l.SetSyncFunc(noSync)
		defer l.Close()
		if trunc != nil {
			t.Fatalf("healed log truncates again: %v", trunc)
		}
		if want := append(prefix, x); !slices.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("reopen replayed %q, want the prefix plus x: %q", got, want)
		}
	})
}

package castore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// SegLog is an append-only, content-addressed segment log on disk: each
// entry is framed as [magic][length][sha256 digest][payload] and every
// replay re-hashes the payload against its digest, so a torn tail, a
// flipped bit, or a record that no longer decodes is *detected* and cut
// off at the last verifiable entry instead of being restored blindly —
// the same verify-then-fallback discipline the checkpoint layer applies
// to recovery state. The detection service backs its report store with
// one of these (see internal/service.OpenStore); the log itself is
// payload-agnostic.
//
// Entries accumulate in numbered segment files (seg-000001.log, ...)
// that rotate at maxSegmentBytes. Appends fsync on a configurable
// cadence (SyncEvery); Close and Sync flush unconditionally. Sync runs
// its fsync outside the log's lock, so appends proceed while it waits on
// the disk: a caller that syncs on its own schedule (the report store's
// committer) gets group commit. The log is safe for concurrent use.
type SegLog struct {
	mu   sync.Mutex
	dir  string
	opts SegLogOptions

	f        *os.File // active segment, opened O_APPEND
	seg      int      // active segment index (1-based)
	segBytes int64    // bytes in the active segment
	maxSeg   int64    // rotation size: maxSegmentBytes; tests shrink it

	segments  int
	diskBytes int64
	appended  int64
	replayed  int64
	fsyncs    int64
	synced    int64 // appends covered by the last fsync; appended-synced are not yet durable
	closed    bool

	// sync is the fsync; tests replace it (SetSyncFunc) to hold one open.
	sync func(*os.File) error
}

// SegLogOptions tunes a segment log.
type SegLogOptions struct {
	// SyncEvery fsyncs the active segment after every Nth append; 0 → 1
	// (every append is durable before Append returns), negative → never
	// fsync automatically (Sync and Close still flush).
	SyncEvery int
}

func (o SegLogOptions) withDefaults() SegLogOptions {
	if o.SyncEvery == 0 {
		o.SyncEvery = 1
	}
	return o
}

// Truncation describes a tail the log refused to replay: where the first
// unverifiable entry sat and why, plus how many bytes (including any
// later, now-unreachable segments) were discarded. The log is truncated
// at the last verified entry, so subsequent appends continue from there.
type Truncation struct {
	Segment      string `json:"segment"`
	Offset       int64  `json:"offset"`
	Reason       string `json:"reason"`
	DroppedBytes int64  `json:"dropped_bytes"`
}

func (t *Truncation) String() string {
	return fmt.Sprintf("%s@%d: %s (%d bytes discarded)", t.Segment, t.Offset, t.Reason, t.DroppedBytes)
}

// SegLogStats is a point-in-time accounting of the log.
type SegLogStats struct {
	Segments  int   // segment files on disk
	DiskBytes int64 // bytes across all segments
	Appended  int64 // entries appended this process
	Replayed  int64 // entries verified and replayed at open
	Fsyncs    int64 // explicit fsyncs issued
}

// Digest is a log entry's frame digest: the SHA-256 of its payload. It is
// part of the on-disk format, independent of the chunk store's Key.
type Digest [sha256.Size]byte

// String renders the digest as abbreviated hex for logs.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:8]) }

// Entry framing: 1 magic byte, 4-byte little-endian payload length, the
// 32-byte payload digest, then the payload itself.
const (
	segMagic       = 0x52 // 'R'
	segHeaderSize  = 1 + 4 + 32
	maxEntryBytes  = 64 << 20
	segNameFormat  = "seg-%06d.log"
	segNamePattern = "seg-*.log"
)

// maxSegmentBytes is the size at which the active segment is sealed and
// the next one started.
const maxSegmentBytes = 4 << 20

func segName(idx int) string { return fmt.Sprintf(segNameFormat, idx) }

// OpenSegLog opens (creating if necessary) the segment log in dir and
// replays every verifiable entry, oldest first, through onEntry. An
// entry fails verification when its frame is torn, its payload no longer
// hashes to its digest, or onEntry rejects it (an undecodable payload
// is as unusable as a corrupt one); the log is then truncated at the
// last good entry, later segments are discarded, and the cut is
// described by the returned *Truncation — replay never panics and never
// surfaces partial entries. The returned error is reserved for real I/O
// failures (unreadable directory, failed truncate).
func OpenSegLog(dir string, opts SegLogOptions, onEntry func(payload []byte) error) (*SegLog, *Truncation, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("castore: creating log dir: %w", err)
	}
	l := &SegLog{dir: dir, opts: opts, maxSeg: maxSegmentBytes, sync: (*os.File).Sync}

	idxs, err := segIndexes(dir)
	if err != nil {
		return nil, nil, err
	}
	var trunc *Truncation
	last := 0
	for i, idx := range idxs {
		name := segName(idx)
		path := filepath.Join(dir, name)
		if i > 0 && idx != idxs[i-1]+1 {
			// A hole in the segment sequence makes everything after it
			// unreachable in log order.
			trunc = &Truncation{Segment: name, Reason: fmt.Sprintf("segment gap: %s follows %s", name, segName(idxs[i-1]))}
			if err := dropSegments(dir, idxs[i:], trunc); err != nil {
				return nil, nil, err
			}
			break
		}
		good, t, err := l.replaySegment(path, name, onEntry)
		if err != nil {
			return nil, nil, err
		}
		last = idx
		if t != nil {
			trunc = t
			if err := os.Truncate(path, good); err != nil {
				return nil, nil, fmt.Errorf("castore: truncating %s: %w", name, err)
			}
			if err := dropSegments(dir, idxs[i+1:], trunc); err != nil {
				return nil, nil, err
			}
			l.diskBytes += good
			l.segments++
			break
		}
		l.diskBytes += good
		l.segments++
	}
	if last == 0 {
		last = 1
	}
	if err := l.openSegment(last); err != nil {
		return nil, nil, err
	}
	return l, trunc, nil
}

// segIndexes lists the numeric indexes of the segment files in dir,
// ascending.
func segIndexes(dir string) ([]int, error) {
	names, err := filepath.Glob(filepath.Join(dir, segNamePattern))
	if err != nil {
		return nil, err
	}
	var idxs []int
	for _, p := range names {
		var i int
		if _, err := fmt.Sscanf(filepath.Base(p), segNameFormat, &i); err == nil && i > 0 {
			idxs = append(idxs, i)
		}
	}
	sort.Ints(idxs)
	return idxs, nil
}

// dropSegments removes unreachable segments, accounting their bytes to
// the truncation report.
func dropSegments(dir string, idxs []int, trunc *Truncation) error {
	for _, idx := range idxs {
		path := filepath.Join(dir, segName(idx))
		if fi, err := os.Stat(path); err == nil {
			trunc.DroppedBytes += fi.Size()
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("castore: dropping unreachable segment: %w", err)
		}
	}
	return nil
}

// replaySegment verifies path entry by entry, calling onEntry for each.
// It returns the offset of the end of the last good entry and, when the
// segment does not verify to its end, a truncation report (with
// DroppedBytes covering this segment's bad tail).
func (l *SegLog) replaySegment(path, name string, onEntry func([]byte) error) (int64, *Truncation, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, fmt.Errorf("castore: opening segment: %w", err)
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, nil, err
	}

	cut := func(off int64, reason string) (int64, *Truncation, error) {
		return off, &Truncation{Segment: name, Offset: off, Reason: reason, DroppedBytes: size - off}, nil
	}
	var off int64
	hdr := make([]byte, segHeaderSize)
	var payload []byte
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			if err == io.EOF {
				return off, nil, nil // clean end of segment
			}
			return cut(off, "torn entry header")
		}
		if hdr[0] != segMagic {
			return cut(off, "bad entry magic")
		}
		n := binary.LittleEndian.Uint32(hdr[1:5])
		if n > maxEntryBytes {
			return cut(off, fmt.Sprintf("implausible entry length %d", n))
		}
		if int64(n) > size-off-segHeaderSize {
			return cut(off, "torn entry payload") // before allocating a length the file lacks
		}
		var want Digest
		copy(want[:], hdr[5:])
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			return cut(off, "torn entry payload")
		}
		if Digest(sha256.Sum256(payload)) != want {
			return cut(off, fmt.Sprintf("chunk %s: %v", want, ErrCorrupt))
		}
		if err := onEntry(payload); err != nil {
			return cut(off, "entry rejected: "+err.Error())
		}
		off += segHeaderSize + int64(n)
		l.replayed++
	}
}

// openSegment opens segment idx for appending (creating it if absent)
// and syncs the directory so the dirent is durable.
func (l *SegLog) openSegment(idx int) error {
	path := filepath.Join(l.dir, segName(idx))
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("castore: opening active segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if os.IsNotExist(statErr) {
		l.segments++ // brand-new segment file
		if d, err := os.Open(l.dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	l.f, l.seg, l.segBytes = f, idx, fi.Size()
	return nil
}

// Append frames payload, writes it to the active segment (rotating
// first when full), and fsyncs per the configured cadence. It returns
// the payload's digest.
func (l *SegLog) Append(payload []byte) (Digest, error) {
	a := Digest(sha256.Sum256(payload))
	if len(payload) > maxEntryBytes {
		return a, fmt.Errorf("castore: entry of %d bytes exceeds the %d-byte frame limit", len(payload), maxEntryBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return a, errors.New("castore: segment log closed")
	}
	if l.segBytes >= l.maxSeg {
		if err := l.rotateLocked(); err != nil {
			return a, err
		}
	}
	buf := make([]byte, segHeaderSize+len(payload))
	buf[0] = segMagic
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(payload)))
	copy(buf[5:5+32], a[:])
	copy(buf[segHeaderSize:], payload)
	if _, err := l.f.Write(buf); err != nil {
		return a, fmt.Errorf("castore: appending entry: %w", err)
	}
	l.segBytes += int64(len(buf))
	l.diskBytes += int64(len(buf))
	l.appended++
	if l.opts.SyncEvery > 0 && l.appended-l.synced >= int64(l.opts.SyncEvery) {
		if err := l.syncLocked(); err != nil {
			return a, err
		}
	}
	return a, nil
}

// rotateLocked seals the active segment and starts the next one.
func (l *SegLog) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegment(l.seg + 1)
}

func (l *SegLog) syncLocked() error {
	if l.synced == l.appended {
		return nil
	}
	if err := l.sync(l.f); err != nil {
		return fmt.Errorf("castore: fsync: %w", err)
	}
	l.fsyncs++
	l.synced = l.appended
	return nil
}

// Sync flushes every append made before it was called to disk. The fsync
// runs without the log's lock, so concurrent appends are not held up by
// it; they are covered by the next Sync.
func (l *SegLog) Sync() error {
	l.mu.Lock()
	if l.closed || l.synced == l.appended {
		l.mu.Unlock()
		return nil
	}
	f, upto, sync := l.f, l.appended, l.sync
	l.mu.Unlock()
	err := sync(f)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || f != l.f || upto <= l.synced {
		// Close, a rotation, or a concurrent Sync already synced these
		// appends (Close and rotation closed f too, so err may be theirs).
		return nil
	}
	if err != nil {
		return fmt.Errorf("castore: fsync: %w", err)
	}
	l.fsyncs++
	l.synced = upto
	return nil
}

// SetSyncFunc replaces the log's fsync, for tests that need one to block.
func (l *SegLog) SetSyncFunc(sync func(*os.File) error) {
	l.mu.Lock()
	l.sync = sync
	l.mu.Unlock()
}

// Close syncs and closes the log. Further appends fail; safe to call
// twice.
func (l *SegLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns a copy of the log's accounting.
func (l *SegLog) Stats() SegLogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return SegLogStats{
		Segments:  l.segments,
		DiskBytes: l.diskBytes,
		Appended:  l.appended,
		Replayed:  l.replayed,
		Fsyncs:    l.fsyncs,
	}
}

// Dir returns the log's directory.
func (l *SegLog) Dir() string { return l.dir }

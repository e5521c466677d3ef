package dsm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"lrcrace/internal/castore"
	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/race"
	"lrcrace/internal/telemetry"
)

// Barrier-epoch checkpointing.
//
// A barrier is a global quiescence point: every interval of the finished
// epoch has been closed, logged, exchanged, and checked for races; diffs
// are flushed; no lock tenures or page fetches belonging to the epoch are
// in flight. That makes the barrier departure the natural recovery line,
// so at each departure every process serializes its recovery state — page
// copies and protocol rights, twins, version vector, interval log and
// stored bitmaps, lock table, statistics, and (at process 0) the detector
// state, which holds the run's one list of race reports — with
// internal/msg's wire walker, the same one that encodes and decodes the
// wire messages.
//
// Since ckptVersion 3 the serialized form is a *manifest*: the bulky
// payloads (page copies, twins, bitmap words) live in a content-addressed
// chunk store (internal/castore) and the manifest records their 8-byte
// keys (CRC-32C, length, collision index). Identical contents deposit to
// the same chunk, so consecutive epochs share chunks instead of storing
// them again — the dedup that makes per-barrier checkpointing cheap enough
// to leave on by default. And the protocol knows which pages changed: a
// page nothing has written, fetched or diffed since the last checkpoint
// re-references its chunk without being read at all (see Proc.ckptKey).
// Because the store checks every chunk against its key, decoding a
// manifest verifies the integrity of its whole chunk closure: a tampered
// or missing chunk surfaces as a typed error, never as silently wrong
// restored state. The encoding is versioned, deterministic (map contents
// serialize in sorted order), and round-trips byte-exactly, so checkpoint
// sizes are genuinely measurable.

const (
	ckptMagic = 0x4c52434b // "LRCK"
	// ckptVersion 5: chunk references are 8-byte castore keys instead of
	// 32-byte SHA-256 addresses. (4 kept race reports once, in the
	// master's detector state; 3 chunked the bulky payloads; 2 inlined
	// them.) The store is in-memory and per-run, so no cross-version
	// decoding is needed.
	ckptVersion = 5
	// keySize is the serialized width of one chunk reference.
	keySize = 8
)

// CheckpointVersion is the current checkpoint serialization format
// version (ckptVersion), exported for operational surfaces — the service
// /version endpoint reports it so operators can tell whether two
// deployments' checkpoint stores are interchangeable.
const CheckpointVersion = ckptVersion

// Typed decode failures. ErrCheckpointCorrupt covers damage to the
// manifest itself (truncation, bit flips, implausible counts, a state the
// decoding process cannot take); ErrCheckpointChunk covers an unresolvable
// chunk closure (a referenced chunk is missing from the store or fails its
// integrity check). Rollback treats both the same way — the epoch is unusable
// and an older line must be tried — but telemetry and tests distinguish
// them.
var (
	ErrCheckpointCorrupt = errors.New("dsm: checkpoint corrupt")
	ErrCheckpointChunk   = errors.New("dsm: checkpoint chunk unresolvable")
)

// CheckpointStats summarizes checkpoint activity for a run. Count and the
// byte totals are cumulative over the run, surviving rollback
// re-deposits; the GC fields describe retention sweeps.
type CheckpointStats struct {
	Count int   // checkpoints deposited (unique (proc, epoch) keys)
	Bytes int64 // stored cost: manifest bytes + unique chunk bytes
	// LogicalBytes is what a full (non-deduplicating) serialization would
	// have written: manifest bytes plus every referenced chunk's bytes.
	// Bytes/LogicalBytes is the dedup ratio.
	LogicalBytes int64
	ChunkPuts    int64 // chunk deposits attempted
	ChunkHits    int64 // chunk deposits deduplicated against resident chunks
	LiveBytes    int64 // bytes currently resident (manifests + chunks)

	GCRemoved         int   // manifests retired by retention GC
	GCFreedBytes      int64 // bytes released by retention GC
	GCLiveBytesBefore int64 // resident bytes just before the latest GC sweep
	GCLiveBytesAfter  int64 // resident bytes just after it

	// EncodeNS is cumulative wall time spent serializing checkpoints
	// (chunk deposits included). Wall-dependent: benchmark material, never
	// part of the deterministic metrics document.
	EncodeNS int64
}

type ckptEntry struct {
	manifest []byte
	keys     []castore.Key // one entry per chunk reference, duplicates kept
}

// CheckpointStore is the stable store of serialized checkpoints, keyed by
// (process, epoch): manifests here, their chunks in an embedded
// content-addressed store. Coordinated rollback restores every process
// from the latest epoch for which all processes have a checkpoint whose
// chunk closure verifies. Like the System it belongs to, a store is used by
// one thread at a time — the run's scheduler, then whoever reads the
// finished run — so it has no lock.
type CheckpointStore struct {
	byProc map[int]map[int32]ckptEntry
	chunks *castore.Store

	// keepAll turns GC off: every epoch survives.
	keepAll bool

	count             int
	manifestBytes     int64 // cumulative, new keys only
	liveManifestBytes int64
	gcRemoved         int
	gcFreed           int64
	gcBefore, gcAfter int64
	encodeNS          int64

	// final is Stats as release found them; nil while the store is live.
	final *CheckpointStats
}

// NewCheckpointStore returns an empty store with an empty chunk store.
func NewCheckpointStore() *CheckpointStore {
	return &CheckpointStore{
		byProc: make(map[int]map[int32]ckptEntry),
		chunks: castore.New(),
	}
}

// Chunks returns the embedded content-addressed chunk store.
func (cs *CheckpointStore) Chunks() *castore.Store { return cs.chunks }

// ckptRetain is the retention-GC tail: how many epochs at and below the
// recovery line survive a sweep (the line plus one fallback for verify
// failures).
const ckptRetain = 2

// initCheckpoints creates the run's checkpoint store, once, when
// checkpointing is on.
func (s *System) initCheckpoints() {
	if s.cfg.checkpointing() && s.ckpts == nil {
		s.ckpts = NewCheckpointStore()
		s.ckpts.keepAll = s.keepCkpts
	}
}

// Put deposits proc's checkpoint manifest for epoch along with the chunk
// references it holds (the depositor already holds one chunk-store
// reference per key; the store now owns them). A re-deposit of the
// same (proc, epoch) — rollback re-execution crossing the same barrier —
// replaces the entry and retires the old closure's references without
// recounting the cumulative stats.
func (cs *CheckpointStore) Put(proc int, epoch int32, manifest []byte, keys []castore.Key) {
	m := cs.byProc[proc]
	if m == nil {
		m = make(map[int32]ckptEntry)
		cs.byProc[proc] = m
	}
	if old, ok := m[epoch]; ok {
		cs.liveManifestBytes -= int64(len(old.manifest))
		for _, k := range old.keys {
			cs.chunks.Unref(k)
		}
	} else {
		cs.count++
		cs.manifestBytes += int64(len(manifest))
	}
	cs.liveManifestBytes += int64(len(manifest))
	m[epoch] = ckptEntry{manifest: manifest, keys: keys}
}

// Get returns proc's checkpoint manifest for epoch, or nil.
func (cs *CheckpointStore) Get(proc int, epoch int32) []byte {
	return cs.byProc[proc][epoch].manifest
}

// LatestCommonEpoch returns the highest epoch for which all n processes
// hold a checkpoint — the recovery line of a coordinated rollback. Since
// every process checkpoints at every barrier departure, this is the
// minimum over processes of their latest checkpoint epoch; 0 (the initial
// state, before any barrier) if some process has none.
func (cs *CheckpointStore) LatestCommonEpoch(n int) int32 {
	common := int32(-1)
	for p := 0; p < n; p++ {
		var latest int32
		for e := range cs.byProc[p] {
			if e > latest {
				latest = e
			}
		}
		if common < 0 || latest < common {
			common = latest
		}
	}
	if common < 0 {
		common = 0
	}
	return common
}

// haveAll reports whether all n processes have deposited epoch.
func (cs *CheckpointStore) haveAll(epoch int32, n int) bool {
	for p := 0; p < n; p++ {
		if _, ok := cs.byProc[p][epoch]; !ok {
			return false
		}
	}
	return true
}

// GC retires every epoch superseded by the recovery line, keeping the
// ckptRetain tail (the line itself plus ckptRetain−1 older epochs as
// verify-failure fallbacks). It returns the number of manifests retired
// and the resident bytes released (chunks freed transitively through
// their refcounts).
func (cs *CheckpointStore) GC(n int) (removed int, freed int64) {
	if cs.keepAll {
		return 0, 0
	}
	cutoff := cs.LatestCommonEpoch(n) - ckptRetain
	if cutoff < 1 {
		return 0, 0
	}
	before := cs.liveBytes()
	for _, m := range cs.byProc {
		for e, ent := range m {
			if e <= cutoff {
				cs.liveManifestBytes -= int64(len(ent.manifest))
				for _, k := range ent.keys {
					cs.chunks.Unref(k)
				}
				delete(m, e)
				removed++
			}
		}
	}
	if removed == 0 {
		return 0, 0
	}
	after := cs.liveBytes()
	cs.gcRemoved += removed
	cs.gcFreed += before - after
	cs.gcBefore, cs.gcAfter = before, after
	return removed, before - after
}

func (cs *CheckpointStore) liveBytes() int64 {
	return cs.liveManifestBytes + cs.chunks.Stats().LiveBytes
}

// release returns every chunk buffer to the frame pool, at the end of the
// run the store belongs to. Stats keep reading what they read before.
func (cs *CheckpointStore) release() {
	if cs.final == nil {
		st := cs.Stats()
		cs.final = &st
		cs.chunks.Release()
	}
}

// Stats returns cumulative checkpoint counters.
func (cs *CheckpointStore) Stats() CheckpointStats {
	if cs.final != nil {
		return *cs.final
	}
	ch := cs.chunks.Stats()
	return CheckpointStats{
		Count:             cs.count,
		Bytes:             cs.manifestBytes + ch.StoredBytes,
		LogicalBytes:      cs.manifestBytes + ch.LogicalBytes,
		ChunkPuts:         ch.Puts,
		ChunkHits:         ch.Hits,
		LiveBytes:         cs.liveBytes(),
		GCRemoved:         cs.gcRemoved,
		GCFreedBytes:      cs.gcFreed,
		GCLiveBytesBefore: cs.gcBefore,
		GCLiveBytesAfter:  cs.gcAfter,
		EncodeNS:          cs.encodeNS,
	}
}

// ckptChunkStats is one encode's chunking accounting.
type ckptChunkStats struct {
	puts         int64 // chunks referenced by the manifest
	hits         int64 // of those, already resident (deduplicated)
	newBytes     int64 // bytes of chunks stored fresh
	logicalBytes int64 // bytes of all referenced chunks
}

// checkpoint serializes this process's recovery state and deposits
// it in the system's checkpoint store. Called at barrier departure (after
// epoch++ and the new interval's start, so the checkpoint is exactly the
// state execution resumes from).
func (p *Proc) checkpoint() {
	cs := p.sys.ckpts
	start := time.Now()
	if p.sys.allDirty {
		clear(p.ckptClean)
	}
	manifest, keys, cst := p.encodeCheckpointInto(cs.Chunks())
	cs.Put(p.id, p.epoch, manifest, keys)
	cs.encodeNS += time.Since(start).Nanoseconds()
	p.tel.Emit(p.id, telemetry.KCheckpoint, p.vnow,
		int64(p.epoch), int64(len(manifest)), int64(len(manifest))+cst.logicalBytes)
	if cst.puts > 0 {
		p.tel.Emit(p.id, telemetry.KCkptChunk, p.vnow, cst.puts, cst.hits, cst.newBytes)
	}
	p.sys.maybeCorrupt(p.epoch)
	if removed, freed := cs.GC(p.n); removed > 0 {
		p.tel.Emit(p.id, telemetry.KCkptGC, p.vnow, int64(removed), freed, 0)
	}
}

// bitmapChunk serializes an access bitmap's words little-endian — the
// chunkable payload form of mem.Bitmap.
func bitmapChunk(b mem.Bitmap) []byte {
	out := make([]byte, 8*len(b))
	for i, w := range b {
		binary.LittleEndian.PutUint64(out[i*8:], w)
	}
	return out
}

func chunkBitmap(b []byte) mem.Bitmap {
	bm := make(mem.Bitmap, len(b)/8)
	for i := range bm {
		bm[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return bm
}

// encodeCheckpointInto serializes the checkpointable state of p, chunking
// the bulky payloads into cs. It returns the manifest, the chunk references
// taken (one per manifest reference; the caller owns them and hands them to
// CheckpointStore.Put), and the encode's chunking stats. No handler runs
// during the capture (one thread of control, sched.go), so it is atomic
// with respect to message handling. The manifest's buffer starts an eighth
// longer than p's previous manifest, which a process's next one rarely
// outgrows.
func (p *Proc) encodeCheckpointInto(cs *castore.Store) ([]byte, []castore.Key, ckptChunkStats) {
	buf := make([]byte, 0, p.manifestLen+p.manifestLen/8)
	w := &ckptWire{Wire: msg.Wire{E: msg.NewEncoder(buf)}, store: cs}
	if p.id == 0 && p.sys.detector != nil {
		st := p.sys.detector.SnapshotState()
		w.det = &st
	}
	p.checkpointLayout(w)
	manifest := w.E.Bytes()
	p.manifestLen = len(manifest)
	return manifest, w.keys, w.cst
}

// decodeCheckpoint decodes manifest b into a fresh process id of s,
// resolving every chunk reference through chunks (nil → none resolve),
// which verifies each chunk against its key. At process 0 of a
// detecting system it also returns the detector state the manifest
// carries; nothing outside the returned process is touched. Errors are
// typed: ErrCheckpointChunk for an unresolvable closure,
// ErrCheckpointCorrupt for anything else. It never panics, whatever the
// input.
func decodeCheckpoint(s *System, id int, b []byte, chunks *castore.Store) (*Proc, *race.State, error) {
	p := newProc(s, id)
	d := msg.NewDecoder(b)
	w := &ckptWire{Wire: msg.Wire{D: d}, store: chunks}
	if id == 0 && s.detector != nil {
		w.det = &race.State{}
	}
	p.checkpointLayout(w)
	if !d.Done() {
		d.Fail(errors.New("trailing bytes"))
	}
	if err := d.Err(); err != nil {
		if !errors.Is(err, ErrCheckpointChunk) {
			err = fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
		}
		return nil, nil, err
	}
	return p, w.det, nil
}

// ckptWire walks a checkpoint manifest: the msg walker plus the one shape
// only a checkpoint has, the chunk reference.
type ckptWire struct {
	msg.Wire
	// store is where encoding deposits chunks and where decoding resolves
	// keys (nil → none resolve).
	store *castore.Store
	keys  []castore.Key // encoding: the references taken
	cst   ckptChunkStats
	det   *race.State // the master's detector state; nil → none
}

// verifyClean makes every clean page's re-reference also compare the page
// with the chunk in test binaries, so a mutation site that forgets to
// clear Proc.ckptClean fails the suite instead of checkpointing stale
// bytes. Other binaries never read a clean page.
var verifyClean = testing.Testing()

// chunk moves a bulky payload as its 8-byte key. Encoding re-references
// the chunk named known when clean says *b is exactly its contents (Ref,
// which never reads *b), and otherwise — or when the store refuses the
// Ref — deposits *b; it writes the key either way. Decoding reads a key
// and resolves it through the verifying store into *b. Either way it
// returns the key.
func (w *ckptWire) chunk(b *[]byte, known castore.Key, clean bool) castore.Key {
	k := known
	if w.D != nil {
		msg.N64(w.Wire, &k)
		switch {
		case w.D.Err() != nil:
		case w.store == nil:
			w.D.Fail(fmt.Errorf("%w: %s: no chunk store", ErrCheckpointChunk, k))
		default:
			data, err := w.store.Get(k)
			if err != nil {
				w.D.Fail(fmt.Errorf("%w: %v", ErrCheckpointChunk, err))
			}
			*b = data
		}
		return k
	}
	w.cst.puts++
	w.cst.logicalBytes += int64(len(*b))
	if clean && w.store.Ref(k) {
		w.cst.hits++
		if verifyClean {
			w.checkClean(k, *b)
		}
	} else {
		var isNew bool
		k, isNew = w.store.Put(*b)
		if isNew {
			w.cst.newBytes += int64(len(*b))
		} else {
			w.cst.hits++
		}
	}
	w.keys = append(w.keys, k)
	msg.N64(w.Wire, &k)
	return k
}

// checkClean panics unless b is the contents of the chunk named k.
func (w *ckptWire) checkClean(k castore.Key, b []byte) {
	data, err := w.store.Get(k)
	if err != nil || !bytes.Equal(data, b) {
		panic(fmt.Sprintf("dsm: checkpoint: a page marked clean differs from its chunk %s (%v): a mutation site did not mark it dirty", k, err))
	}
	mem.PutFrame(data)
}

// fail rejects the manifest being decoded; the first failure sticks.
func (w *ckptWire) fail(format string, args ...any) {
	w.D.Fail(fmt.Errorf(format, args...))
}

// pageSet moves a page set as its sorted page list.
func (w *ckptWire) pageSet(s *pageSet, np int) {
	pages := s.sorted()
	w.Pages(&pages)
	if w.D != nil && w.pageList(pages, np) {
		for _, pg := range pages {
			s.add(pg)
		}
	}
}

// pageList reports whether a decoded page list is strictly ascending within
// [0, np), failing the decode if not.
func (w *ckptWire) pageList(pages []mem.PageID, np int) bool {
	if !ascending(pages, cmp.Compare[mem.PageID]) ||
		len(pages) > 0 && (pages[0] < 0 || int(pages[len(pages)-1]) >= np) {
		w.fail("list of %d pages out of order or outside [0, %d)", len(pages), np)
		return false
	}
	return true
}

// ascending reports whether xs strictly increases under compare: the order
// the encoder writes every set and map in, so a decoded list in any other
// order (or with a duplicate) is not one it wrote.
func ascending[T any](xs []T, compare func(a, b T) int) bool {
	for i := 1; i < len(xs); i++ {
		if compare(xs[i-1], xs[i]) >= 0 {
			return false
		}
	}
	return true
}

func compareRecords(a, b *interval.Record) int { return interval.CompareIDs(a.ID, b.ID) }

// procsIn reports whether every record of an ascending list names a
// process in [0, n) (decoded IDs are never negative).
func procsIn(recs []*interval.Record, n int) bool {
	return len(recs) == 0 || recs[len(recs)-1].ID.Proc < n
}

// compareBitmaps orders stored bitmaps as BitmapStore.Entries lists them:
// reads before writes, then by interval and page.
func compareBitmaps(a, b interval.StoredBitmap) int {
	if a.Write != b.Write {
		if b.Write {
			return -1
		}
		return 1
	}
	return cmp.Or(interval.CompareIDs(a.ID, b.ID), cmp.Compare(a.Page, b.Page))
}

// checkpointLayout states the checkpoint format once, in manifest order,
// for encoding and decoding alike. Decoding writes into a fresh process and
// checks each field where it is read: the header must name this process,
// the page table must match the layout, a home page's directory owner must
// name a process (and any other page's must be -1), page copies and twins
// must be page-sized, page sets and stored bitmaps must lie in the layout, a
// stored bitmap must have a page's word count, a lock's last holder must
// be -1 or name a process, the master's detector state must match whether
// the system detects, race reports must pass checkReports, and flags must
// be 0 or 1. Counts are bounded by the bytes left, and sets and maps
// (twins, page sets, locks, the interval log, stored bitmaps, racy
// records) must come in the strictly ascending order the encoder writes
// them in — so an accepted manifest re-encodes to its own bytes.
func (p *Proc) checkpointLayout(w *ckptWire) {
	dec := w.D != nil
	magic, version, id, n := uint32(ckptMagic), uint8(ckptVersion), p.id, p.n
	msg.N32(w.Wire, &magic)
	msg.N8(w.Wire, &version)
	msg.N16(w.Wire, &id)
	msg.N16(w.Wire, &n)
	switch {
	case !dec:
	case magic != ckptMagic:
		w.fail("bad magic")
	case version != ckptVersion:
		w.fail("unsupported version %d", version)
	case id != p.id || n != p.n:
		w.fail("checkpoint of proc %d/%d decoded at proc %d/%d", id, n, p.id, p.n)
	}
	msg.N32(w.Wire, &p.epoch)
	msg.N32(w.Wire, &p.curIndex)
	msg.N64(w.Wire, &p.vnow)
	w.VC(&p.vcur)

	// Page table and copies. Transient fault state (expecting/fetching/
	// pendFwd) is quiescent at a barrier and is not serialized. Three pages
	// in four are byte-identical to the previous epoch's copy: a clean one
	// re-references the chunk it was last deposited under (or, in a process
	// decoded from a checkpoint, restored from). A page without a frame is
	// encoded from the zero page and decoded into a frame of its own.
	np := len(p.state)
	if p.ckptKey == nil {
		p.ckptKey = make([]castore.Key, np)
		p.ckptClean = make([]bool, np)
	}
	if got, _ := w.Count(np, 7); dec && got != np {
		w.fail("checkpoint has %d pages, layout has %d", got, np)
	}
	for i := 0; i < np; i++ {
		pg := mem.PageID(i)
		msg.N8(w.Wire, &p.state[pg])
		w.Flag(&p.owned[pg])
		msg.N32(w.Wire, &p.dirOwner[pg])
		if dec {
			o, home := p.dirOwner[pg], int(pg)%p.n == p.id
			if home && (o < 0 || o >= p.n) || !home && o != -1 {
				w.fail("page %d: directory owner %d at proc %d/%d", pg, o, p.id, p.n)
			}
		}
		valid := p.state[pg] != pageInvalid
		hasCopy := valid
		w.Flag(&hasCopy)
		if dec && (hasCopy != valid || p.state[pg] > pageWritable) {
			w.fail("page %d: state %d with copy %v", pg, p.state[pg], hasCopy)
		}
		if hasCopy {
			b := p.seg.PageView(pg)
			p.ckptKey[pg] = w.chunk(&b, p.ckptKey[pg], p.ckptClean[pg])
			p.ckptClean[pg] = true
			switch {
			case !dec:
			case len(b) != p.seg.PageSize:
				w.fail("page %d copy has %d bytes, page size is %d", pg, len(b), p.seg.PageSize)
			default:
				p.seg.AdoptPage(pg, b)
			}
		}
	}

	// Twins (multi-writer pristine copies), sorted by page.
	var twinPages []mem.PageID
	for pg, tw := range p.twins {
		if tw != nil {
			twinPages = append(twinPages, mem.PageID(pg))
		}
	}
	if k, ok := w.Count(len(twinPages), 4+keySize); dec && ok {
		twinPages = make([]mem.PageID, k)
	}
	for i := range twinPages {
		pg := twinPages[i]
		msg.N32(w.Wire, &pg)
		twinPages[i] = pg
		var tw []byte
		if !dec {
			tw = p.twins[pg]
		}
		w.chunk(&tw, 0, false)
		switch {
		case !dec:
		case pg < 0 || int(pg) >= len(p.twins):
			w.fail("twin of page %d outside [0, %d)", pg, len(p.twins))
		case len(tw) != p.seg.PageSize:
			w.fail("twin of page %d has %d bytes, page size is %d", pg, len(tw), p.seg.PageSize)
		default:
			p.twins[pg] = tw
			p.twinned.add(pg)
		}
	}
	if dec {
		w.pageList(twinPages, np)
	}

	w.pageSet(&p.writtenPages, np)
	w.pageSet(&p.pendingInval, np)

	// Lock table: durable tenure state only. In-flight requests (awaiting,
	// pending grants, replay deferrals) are transient and re-established by
	// re-execution.
	lockIDs := make([]int, 0, len(p.locks))
	for id := range p.locks {
		lockIDs = append(lockIDs, id)
	}
	sort.Ints(lockIDs)
	if k, ok := w.Count(len(lockIDs), 19); dec && ok {
		lockIDs = make([]int, k)
	}
	for i := range lockIDs {
		msg.N32(w.Wire, &lockIDs[i])
		if dec {
			p.locks[lockIDs[i]] = &lockState{}
		}
		ls := p.locks[lockIDs[i]]
		w.Flag(&ls.holding)
		w.Flag(&ls.releasedUngranted)
		msg.N64(w.Wire, &ls.lastRelV)
		released := ls.relVC != nil
		w.Flag(&released)
		if released {
			w.VC(&ls.relVC)
		}
		msg.N32(w.Wire, &ls.lastHolder)
		if dec && (ls.lastHolder < -1 || ls.lastHolder >= p.n) {
			w.fail("lock %d: last holder %d outside [-1, %d)", lockIDs[i], ls.lastHolder, p.n)
		}
	}
	if dec && !ascending(lockIDs, cmp.Compare[int]) {
		w.fail("lock table out of order")
	}

	// Interval log and stored access bitmaps. The current epoch's record
	// queue is not written: Barrier hands it to the arrival and empties it,
	// and nothing closes an interval between then and this cut.
	logRecs := p.log.Records()
	w.Records(&logRecs)
	if dec {
		if !ascending(logRecs, compareRecords) || !procsIn(logRecs, p.n) {
			w.fail("interval log out of order or naming a process outside [0, %d)", p.n)
		}
		for _, r := range logRecs {
			p.log.Add(r)
		}
	}
	ents := p.store.Entries()
	if k, ok := w.Count(len(ents), 11+keySize); dec && ok {
		ents = make([]interval.StoredBitmap, k)
	}
	bitmapBytes := (p.seg.PageSize/mem.WordSize + 63) / 64 * 8 // one page's mem.Bitmap
	for i := range ents {
		en := &ents[i]
		w.ID(&en.ID)
		msg.N32(w.Wire, &en.Page)
		w.Flag(&en.Write)
		words := bitmapChunk(en.Bits)
		w.chunk(&words, 0, false)
		switch {
		case !dec:
		case en.Page < 0 || int(en.Page) >= np:
			w.fail("bitmap of page %d outside [0, %d)", en.Page, np)
		case en.ID.Proc >= p.n:
			w.fail("bitmap of interval %v outside processes [0, %d)", en.ID, p.n)
		case len(words) != bitmapBytes:
			w.fail("bitmap chunk of %d bytes, a page's bitmap has %d", len(words), bitmapBytes)
		default:
			p.store.Put(en.ID, en.Page, en.Write, chunkBitmap(words))
		}
	}
	if dec && !ascending(ents, compareBitmaps) {
		w.fail("stored bitmaps out of order")
	}

	for _, f := range procStatsFields(&p.st) {
		msg.N64(w.Wire, f)
	}

	// The master's extra: the detector's mutable state, race reports
	// included. The header's proc id says whether this is the master, and
	// restore realigns every barrier epoch with the process epoch.
	if p.id != 0 {
		return
	}
	detecting := w.det != nil
	hasDet := detecting
	w.Flag(&hasDet)
	if dec && hasDet != detecting {
		w.fail("detector state %v in a system detecting %v", hasDet, detecting)
		return
	}
	if detecting {
		for _, f := range raceStatsFields(&w.det.Stats) {
			msg.N64(w.Wire, f)
		}
		msg.N32(w.Wire, &w.det.FirstRacyEpoch)
		w.Records(&w.det.RacyRecords)
		if dec && (!ascending(w.det.RacyRecords, compareRecords) || !procsIn(w.det.RacyRecords, p.n)) {
			w.fail("racy records out of order or naming a process outside [0, %d)", p.n)
		}
		w.Reports(&w.det.Reports)
		if dec {
			p.checkReports(w)
		}
	}
}

// checkReports fails the decode at the first restored race report the
// detector could not have made before this manifest's epoch: one naming a
// process outside [0, n), a word outside the layout or not at its own
// address, a kind other than read or write, or an epoch at or past the
// manifest's, negative, or below the report before it.
func (p *Proc) checkReports(w *ckptWire) {
	l, prev := p.sys.layout, int32(0)
	for i, r := range w.det.Reports {
		if r.A.Interval.Proc >= p.n || r.B.Interval.Proc >= p.n ||
			r.Page < 0 || int(r.Page) >= l.NumPages || r.Word < 0 || r.Word >= l.WordsPerPage() ||
			r.Addr != l.PageBase(r.Page)+mem.Addr(r.Word*mem.WordSize) ||
			r.A.Kind > race.Write || r.B.Kind > race.Write || r.Epoch < prev || r.Epoch >= p.epoch {
			w.fail("race report %d impossible at proc %d/%d, epoch %d: %v", i, p.id, p.n, p.epoch, r)
			return
		}
		prev = r.Epoch
	}
}

// procStatsFields lists the checkpointed Stats counters in manifest order;
// each is written as an I64.
func procStatsFields(st *Stats) [22]*int64 {
	return [...]*int64{
		&st.SharedReads, &st.SharedWrites, &st.PrivateAccesses,
		&st.ReadFaults, &st.WriteFaults, &st.IntervalsCreated,
		&st.LockAcquires, &st.Barriers, &st.DiffsFlushed, &st.DiffWords,
		&st.ComputeOps,
		&st.TProcCall, &st.TAccessCheck, &st.TCVMMods, &st.TIntervalCmp, &st.TBitmapCmp,
		&st.ReadNoticeBytes, &st.SyncMsgBytes, &st.BitmapsCreated, &st.BitmapsSent,
		&st.CheckEntriesCompared, &st.BitmapsCompared,
	}
}

// raceStatsFields is procStatsFields for the master's race.Stats.
func raceStatsFields(st *race.Stats) [11]*int {
	return [...]*int{
		&st.Epochs, &st.IntervalsTotal, &st.PairComparisons, &st.ConcurrentPairs,
		&st.OverlappingPairs, &st.IntervalsInvolved, &st.CheckEntries,
		&st.NoticesScanned, &st.BitmapsCompared, &st.WordOverlaps, &st.SuppressedReports,
	}
}

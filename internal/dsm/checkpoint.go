package dsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"lrcrace/internal/castore"
	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/race"
	"lrcrace/internal/telemetry"
	"lrcrace/internal/vc"
)

// Barrier-epoch checkpointing.
//
// A barrier is a global quiescence point: every interval of the finished
// epoch has been closed, logged, exchanged, and checked for races; diffs
// are flushed; no lock tenures or page fetches belonging to the epoch are
// in flight. That makes the barrier departure the natural recovery line,
// so at each departure every process serializes its recovery state — page
// copies and protocol rights, twins, version vector, interval log and
// stored bitmaps, lock table, accumulated race reports, statistics, and
// (at process 0) the detector state — through the same codec style
// internal/msg uses for wire messages.
//
// Since ckptVersion 3 the serialized form is a *manifest*: the bulky
// payloads (page copies, twins, bitmap words) live in a content-addressed
// chunk store (internal/castore) and the manifest records their 32-byte
// SHA-256 addresses. A page that did not change between barriers hashes to
// the same address, so consecutive epochs share chunks instead of storing
// them again — the dedup that makes per-barrier checkpointing cheap enough
// to leave on by default. Because the address is the hash, decoding a
// manifest verifies the integrity of its whole chunk closure: a tampered
// or missing chunk surfaces as a typed error, never as silently wrong
// restored state. The encoding is versioned, deterministic (map contents
// serialize in sorted order), and round-trips byte-exactly, so checkpoint
// sizes are genuinely measurable.

const (
	ckptMagic = 0x4c52434b // "LRCK"
	// ckptVersion 3: page copies, twins, and bitmap words moved out of the
	// manifest into the content-addressed chunk store; the manifest holds
	// their addresses. (Version 2 inlined every payload.) The store is
	// in-memory and per-run, so no cross-version decoding is needed.
	ckptVersion = 3
	// addrSize is the serialized width of one chunk address.
	addrSize = len(castore.Addr{})
)

// CheckpointVersion is the current checkpoint serialization format
// version (ckptVersion), exported for operational surfaces — the service
// /version endpoint reports it so operators can tell whether two
// deployments' checkpoint stores are interchangeable.
const CheckpointVersion = ckptVersion

// Typed decode failures. ErrCheckpointCorrupt covers damage to the
// manifest itself (truncation, bit flips, implausible counts);
// ErrCheckpointChunk covers an unresolvable chunk closure (a referenced
// chunk is missing from the store or fails its hash check). Rollback
// treats both the same way — the epoch is unusable and an older line must
// be tried — but telemetry and tests distinguish them.
var (
	ErrCheckpointCorrupt = errors.New("dsm: checkpoint corrupt")
	ErrCheckpointChunk   = errors.New("dsm: checkpoint chunk unresolvable")
)

// chunkSource resolves chunk addresses during manifest decoding.
// *castore.Store implements it; tests substitute fault-injecting stores.
type chunkSource interface {
	Get(castore.Addr) ([]byte, error)
}

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
	// (hashing included). Wall-dependent: benchmark material, never part
	// of the deterministic metrics document.
	EncodeNS int64
}

type ckptEntry struct {
	manifest []byte
	addrs    []castore.Addr // one entry per chunk reference, duplicates kept
}

// CheckpointStore is the stable store of serialized checkpoints, keyed by
// (process, epoch): manifests here, their chunks in an embedded
// content-addressed store. Coordinated rollback restores every process
// from the latest epoch for which all processes have a checkpoint whose
// chunk closure verifies.
type CheckpointStore struct {
	mu     sync.Mutex
	byProc map[int]map[int32]ckptEntry
	chunks *castore.Store

	// retain is the epoch tail kept by GC: 0 → keep 2 (the recovery line
	// and one fallback), negative → keep everything.
	retain int

	count             int
	manifestBytes     int64 // cumulative, new keys only
	liveManifestBytes int64
	gcRemoved         int
	gcFreed           int64
	gcBefore, gcAfter int64
	encodeNS          int64
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

// SetRetain configures the retention-GC tail: how many epochs at and below
// the recovery line survive a sweep. 0 keeps the default of 2 (the line
// plus one fallback for verify failures); negative keeps everything.
func (cs *CheckpointStore) SetRetain(epochs int) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.retain = epochs
}

// Put deposits proc's checkpoint manifest for epoch along with the chunk
// references it holds (the depositor already holds one chunk-store
// reference per address; the store now owns them). A re-deposit of the
// same (proc, epoch) — rollback re-execution crossing the same barrier —
// replaces the entry and retires the old closure's references without
// recounting the cumulative stats.
func (cs *CheckpointStore) Put(proc int, epoch int32, manifest []byte, addrs []castore.Addr) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	m := cs.byProc[proc]
	if m == nil {
		m = make(map[int32]ckptEntry)
		cs.byProc[proc] = m
	}
	if old, ok := m[epoch]; ok {
		cs.liveManifestBytes -= int64(len(old.manifest))
		for _, a := range old.addrs {
			cs.chunks.Unref(a)
		}
	} else {
		cs.count++
		cs.manifestBytes += int64(len(manifest))
	}
	cs.liveManifestBytes += int64(len(manifest))
	m[epoch] = ckptEntry{manifest: manifest, addrs: addrs}
}

// Get returns proc's checkpoint manifest for epoch, or nil.
func (cs *CheckpointStore) Get(proc int, epoch int32) []byte {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.byProc[proc][epoch].manifest
}

// LatestCommonEpoch returns the highest epoch for which all n processes
// hold a checkpoint — the recovery line of a coordinated rollback. Since
// every process checkpoints at every barrier departure, this is the
// minimum over processes of their latest checkpoint epoch; 0 (the initial
// state, before any barrier) if some process has none.
func (cs *CheckpointStore) LatestCommonEpoch(n int) int32 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.latestCommonLocked(n)
}

func (cs *CheckpointStore) latestCommonLocked(n int) int32 {
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
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for p := 0; p < n; p++ {
		if _, ok := cs.byProc[p][epoch]; !ok {
			return false
		}
	}
	return true
}

// GC retires every epoch superseded by the recovery line, keeping the
// configured tail (the line itself plus retain−1 older epochs as
// verify-failure fallbacks). It returns the number of manifests retired
// and the resident bytes released (chunks freed transitively through
// their refcounts).
func (cs *CheckpointStore) GC(n int) (removed int, freed int64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.retain < 0 {
		return 0, 0
	}
	retain := cs.retain
	if retain == 0 {
		retain = 2
	}
	cutoff := cs.latestCommonLocked(n) - int32(retain)
	if cutoff < 1 {
		return 0, 0
	}
	before := cs.liveBytesLocked()
	for _, m := range cs.byProc {
		for e, ent := range m {
			if e <= cutoff {
				cs.liveManifestBytes -= int64(len(ent.manifest))
				for _, a := range ent.addrs {
					cs.chunks.Unref(a)
				}
				delete(m, e)
				removed++
			}
		}
	}
	if removed == 0 {
		return 0, 0
	}
	after := cs.liveBytesLocked()
	cs.gcRemoved += removed
	cs.gcFreed += before - after
	cs.gcBefore, cs.gcAfter = before, after
	return removed, before - after
}

func (cs *CheckpointStore) liveBytesLocked() int64 {
	return cs.liveManifestBytes + cs.chunks.Stats().LiveBytes
}

func (cs *CheckpointStore) addEncodeNS(ns int64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.encodeNS += ns
}

// Stats returns cumulative checkpoint counters.
func (cs *CheckpointStore) Stats() CheckpointStats {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	ch := cs.chunks.Stats()
	return CheckpointStats{
		Count:             cs.count,
		Bytes:             cs.manifestBytes + ch.StoredBytes,
		LogicalBytes:      cs.manifestBytes + ch.LogicalBytes,
		ChunkPuts:         ch.Puts,
		ChunkHits:         ch.Hits,
		LiveBytes:         cs.liveBytesLocked(),
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

// checkpointLocked serializes this process's recovery state and deposits
// it in the system's checkpoint store. Called at barrier departure (after
// epoch++ and the new interval's start, so the checkpoint is exactly the
// state execution resumes from) with p.mu held.
func (p *Proc) checkpointLocked() {
	cs := p.sys.ckpts
	start := time.Now()
	manifest, addrs, cst := p.encodeCheckpointInto(cs.Chunks())
	cs.Put(p.id, p.epoch, manifest, addrs)
	cs.addEncodeNS(time.Since(start).Nanoseconds())
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

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
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

// encodeCheckpointLocked serializes the checkpointable state of p as a
// ckptVersion-3 manifest without depositing chunks anywhere: addresses are
// computed (the hash is the address, store or no store) but the contents
// are dropped. Used by round-trip tests; the checkpointing path proper is
// encodeCheckpointInto.
func (p *Proc) encodeCheckpointLocked() []byte {
	b, _, _ := p.encodeCheckpointInto(nil)
	return b
}

// encodeCheckpointInto serializes the checkpointable state of p, chunking
// the bulky payloads into cs (nil → hash-only, nothing stored). It returns
// the manifest, the chunk references taken (one per manifest reference;
// the caller owns them and hands them to CheckpointStore.Put), and the
// encode's chunking stats. The caller holds p.mu (the service thread
// mutates this state under the same lock, so the capture is atomic with
// respect to message handling).
func (p *Proc) encodeCheckpointInto(cs *castore.Store) ([]byte, []castore.Addr, ckptChunkStats) {
	var addrs []castore.Addr
	var cst ckptChunkStats
	e := &msg.Encoder{}
	// put deposits one bulky payload and writes its address into the
	// manifest. hint is where the depositor believes these bytes already
	// live (the zero Addr when it has no idea); the store verifies it.
	put := func(b []byte, hint castore.Addr) castore.Addr {
		cst.puts++
		cst.logicalBytes += int64(len(b))
		var a castore.Addr
		if cs == nil {
			a = castore.Sum(b)
		} else {
			var isNew bool
			a, isNew = cs.PutAt(hint, b)
			if isNew {
				cst.newBytes += int64(len(b))
			} else {
				cst.hits++
			}
			addrs = append(addrs, a)
		}
		e.Raw(a[:])
		return a
	}
	p.encodeCheckpointBody(e, put)
	return e.Bytes(), addrs, cst
}

// encodeCheckpointBody writes the checkpoint layout, handing each bulky
// payload (page copies, twins, bitmap words) to put, which deposits it in
// the chunk store, writes its address and returns it.
func (p *Proc) encodeCheckpointBody(e *msg.Encoder, put func(b []byte, hint castore.Addr) castore.Addr) {
	e.U32(ckptMagic)
	e.U8(ckptVersion)
	e.U16(uint16(p.id))
	e.U16(uint16(p.n))
	e.I32(p.epoch)
	e.U32(uint32(p.curIndex))
	e.I64(p.vnow)
	e.VC(p.vcur)

	// Page table and copies. Transient fault state (expecting/fetching/
	// pendFwd) is quiescent at a barrier and is not serialized. Three pages
	// in four are byte-identical to the previous epoch's copy, so each is
	// offered at the address it was last deposited under.
	np := p.sys.layout.NumPages
	if p.ckptAddr == nil {
		p.ckptAddr = make([]castore.Addr, np)
	}
	e.U32(uint32(np))
	for i := 0; i < np; i++ {
		pg := mem.PageID(i)
		e.U8(uint8(p.state[pg]))
		e.U8(b2u8(p.owned[pg]))
		e.I32(int32(p.dirOwner[pg]))
		if p.state[pg] != pageInvalid {
			e.U8(1)
			p.ckptAddr[pg] = put(p.seg.PageBytes(pg), p.ckptAddr[pg])
		} else {
			e.U8(0)
		}
	}

	// Twins (multi-writer pristine copies), sorted by page.
	twinPages := make([]mem.PageID, 0, len(p.twins))
	for pg := range p.twins {
		twinPages = append(twinPages, pg)
	}
	interval.SortPages(twinPages)
	e.U32(uint32(len(twinPages)))
	for _, pg := range twinPages {
		e.I32(int32(pg))
		put(p.twins[pg], castore.Addr{})
	}

	e.Pages(p.writtenPages.sorted())
	e.Pages(p.pendingInval.sorted())

	// Lock table: durable tenure state only. In-flight requests (awaiting,
	// pending grants, replay deferrals) are transient and re-established by
	// re-execution.
	lockIDs := make([]int, 0, len(p.locks))
	for id := range p.locks {
		lockIDs = append(lockIDs, id)
	}
	sort.Ints(lockIDs)
	e.U32(uint32(len(lockIDs)))
	for _, id := range lockIDs {
		ls := p.locks[id]
		e.I32(int32(id))
		e.U8(b2u8(ls.holding))
		e.U8(b2u8(ls.releasedUngranted))
		e.I64(ls.lastRelV)
		if ls.relVC != nil {
			e.U8(1)
			e.VC(ls.relVC)
		} else {
			e.U8(0)
		}
		e.I32(int32(ls.lastHolder))
	}

	// Interval log, current-epoch record queue, and stored access bitmaps.
	logRecs := p.log.Records()
	e.U32(uint32(len(logRecs)))
	for _, r := range logRecs {
		msg.EncodeRecord(e, r)
	}
	e.U32(uint32(len(p.epochRecords)))
	for _, r := range p.epochRecords {
		msg.EncodeRecord(e, r)
	}
	ents := p.store.Entries()
	e.U32(uint32(len(ents)))
	for _, en := range ents {
		e.IntervalID(en.ID)
		e.I32(int32(en.Page))
		e.U8(b2u8(en.Write))
		put(bitmapChunk(en.Bits), castore.Addr{})
	}

	// Race reports and statistics.
	e.U32(uint32(len(p.races)))
	for _, r := range p.races {
		msg.EncodeReport(e, r)
	}
	for _, f := range procStatsFields(&p.st) {
		e.I64(*f)
	}

	// Master extras: barrier epoch and the detector's mutable state.
	if p.id == 0 {
		e.U8(1)
		e.I32(p.tree.epoch)
		if det := p.sys.detector; det != nil {
			e.U8(1)
			st := det.SnapshotState()
			for _, f := range raceStatsFields(&st.Stats) {
				e.I64(int64(*f))
			}
			e.I32(st.FirstRacyEpoch)
			e.U32(uint32(len(st.RacyRecords)))
			for _, r := range st.RacyRecords {
				msg.EncodeRecord(e, r)
			}
		} else {
			e.U8(0)
		}
	} else {
		e.U8(0)
	}
}

// procStatsFields lists the checkpointed Stats counters in manifest order,
// for encoding and decoding alike; each is written as an I64.
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

// ckptPage is one page-table entry of a decoded checkpoint.
type ckptPage struct {
	State    pageState
	Owned    bool
	DirOwner int
	Data     []byte // nil if the copy was invalid
}

// ckptLock is one lock-table entry of a decoded checkpoint.
type ckptLock struct {
	ID                int
	Holding           bool
	ReleasedUngranted bool
	LastRelV          int64
	RelVC             vc.VC // nil if never released
	LastHolder        int
}

// procCheckpoint is the decoded form of one process checkpoint, chunk
// references already resolved and verified.
type procCheckpoint struct {
	ID       int
	N        int
	Epoch    int32
	CurIndex vc.Index
	Vnow     int64
	Vcur     vc.VC

	Pages        []ckptPage
	Twins        map[mem.PageID][]byte
	Written      []mem.PageID
	PendingInval []mem.PageID
	Locks        []ckptLock
	Log          []*interval.Record
	EpochRecords []*interval.Record
	Bitmaps      []interval.StoredBitmap
	Races        []race.Report
	St           Stats

	HasMaster bool
	BarEpoch  int32
	HasDet    bool
	Det       race.State
}

// ckptCount reads an element count and sanity-bounds it against the bytes
// left in the manifest, so a bit-flipped count cannot drive a giant
// allocation before the decoder notices the truncation.
func ckptCount(d *msg.Decoder, what string, minSize int) (int, error) {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("%w: %s count: %v", ErrCheckpointCorrupt, what, err)
	}
	if minSize < 1 {
		minSize = 1
	}
	if n > d.Remaining()/minSize {
		return 0, fmt.Errorf("%w: %s count %d exceeds %d remaining bytes",
			ErrCheckpointCorrupt, what, n, d.Remaining())
	}
	return n, nil
}

// decodeCheckpoint parses a serialized manifest, resolving every chunk
// reference through chunks — which verifies each chunk's contents against
// its address. Errors are typed: ErrCheckpointCorrupt for manifest damage,
// ErrCheckpointChunk for an unresolvable closure. It never panics,
// whatever the input.
func decodeCheckpoint(b []byte, chunks chunkSource) (*procCheckpoint, error) {
	d := msg.NewDecoder(b)
	if d.U32() != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCheckpointCorrupt)
	}
	if v := d.U8(); v != ckptVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCheckpointCorrupt, v)
	}
	resolve := func(what string) ([]byte, error) {
		raw := d.Raw(addrSize)
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("%w: %s address: %v", ErrCheckpointCorrupt, what, err)
		}
		var a castore.Addr
		copy(a[:], raw)
		if chunks == nil {
			return nil, fmt.Errorf("%w: %s %s: no chunk source", ErrCheckpointChunk, what, a)
		}
		data, err := chunks.Get(a)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCheckpointChunk, what, err)
		}
		return data, nil
	}
	ck := &procCheckpoint{
		ID:       int(d.U16()),
		N:        int(d.U16()),
		Epoch:    d.I32(),
		CurIndex: vc.Index(d.U32()),
		Vnow:     d.I64(),
		Vcur:     d.VC(),
	}
	np, err := ckptCount(d, "page", 7)
	if err != nil {
		return nil, err
	}
	ck.Pages = make([]ckptPage, np)
	for i := 0; i < np && d.Err() == nil; i++ {
		pg := &ck.Pages[i]
		pg.State = pageState(d.U8())
		pg.Owned = d.U8() != 0
		pg.DirOwner = int(d.I32())
		if d.U8() != 0 {
			if pg.Data, err = resolve("page copy"); err != nil {
				return nil, err
			}
		}
	}
	ntw, err := ckptCount(d, "twin", 4+addrSize)
	if err != nil {
		return nil, err
	}
	ck.Twins = make(map[mem.PageID][]byte, ntw)
	for i := 0; i < ntw && d.Err() == nil; i++ {
		pg := mem.PageID(d.I32())
		tw, err := resolve("twin")
		if err != nil {
			return nil, err
		}
		ck.Twins[pg] = tw
	}
	ck.Written = d.Pages()
	ck.PendingInval = d.Pages()
	nlk, err := ckptCount(d, "lock", 19)
	if err != nil {
		return nil, err
	}
	ck.Locks = make([]ckptLock, nlk)
	for i := 0; i < nlk && d.Err() == nil; i++ {
		lk := &ck.Locks[i]
		lk.ID = int(d.I32())
		lk.Holding = d.U8() != 0
		lk.ReleasedUngranted = d.U8() != 0
		lk.LastRelV = d.I64()
		if d.U8() != 0 {
			lk.RelVC = d.VC()
		}
		lk.LastHolder = int(d.I32())
	}
	nlog, err := ckptCount(d, "log record", 12)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nlog && d.Err() == nil; i++ {
		ck.Log = append(ck.Log, msg.DecodeRecord(d))
	}
	nep, err := ckptCount(d, "epoch record", 12)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nep && d.Err() == nil; i++ {
		ck.EpochRecords = append(ck.EpochRecords, msg.DecodeRecord(d))
	}
	nbm, err := ckptCount(d, "bitmap", 11+addrSize)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nbm && d.Err() == nil; i++ {
		var en interval.StoredBitmap
		en.ID = d.IntervalID()
		en.Page = mem.PageID(d.I32())
		en.Write = d.U8() != 0
		words, err := resolve("bitmap")
		if err != nil {
			return nil, err
		}
		if len(words)%8 != 0 {
			return nil, fmt.Errorf("%w: bitmap chunk of %d bytes", ErrCheckpointCorrupt, len(words))
		}
		en.Bits = chunkBitmap(words)
		ck.Bitmaps = append(ck.Bitmaps, en)
	}
	nr, err := ckptCount(d, "race report", 8)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nr && d.Err() == nil; i++ {
		ck.Races = append(ck.Races, msg.DecodeReport(d))
	}
	for _, f := range procStatsFields(&ck.St) {
		*f = d.I64()
	}
	if d.U8() != 0 {
		ck.HasMaster = true
		ck.BarEpoch = d.I32()
		if d.U8() != 0 {
			ck.HasDet = true
			for _, f := range raceStatsFields(&ck.Det.Stats) {
				*f = int(d.I64())
			}
			ck.Det.FirstRacyEpoch = d.I32()
			ndr, err := ckptCount(d, "racy record", 12)
			if err != nil {
				return nil, err
			}
			for i := 0; i < ndr && d.Err() == nil; i++ {
				ck.Det.RacyRecords = append(ck.Det.RacyRecords, msg.DecodeRecord(d))
			}
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	if !d.Done() {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCheckpointCorrupt)
	}
	return ck, nil
}

// restoreFromCheckpoint overwrites a freshly built process with the state
// of a decoded checkpoint. The chunk closure was already resolved and
// integrity-checked during decoding — a tampered or missing chunk fails
// decodeCheckpoint with a typed error and never reaches this point.
// Called before the service and application threads start, so no locking
// is needed.
func (p *Proc) restoreFromCheckpoint(ck *procCheckpoint) error {
	if ck.ID != p.id || ck.N != p.n {
		return fmt.Errorf("dsm: checkpoint for proc %d/%d restored at proc %d/%d",
			ck.ID, ck.N, p.id, p.n)
	}
	if len(ck.Pages) != p.sys.layout.NumPages {
		return fmt.Errorf("dsm: checkpoint has %d pages, layout has %d",
			len(ck.Pages), p.sys.layout.NumPages)
	}
	p.epoch = ck.Epoch
	p.curIndex = ck.CurIndex
	p.vnow = ck.Vnow
	p.vcur = ck.Vcur.Copy()
	for i := range ck.Pages {
		pg := mem.PageID(i)
		cp := &ck.Pages[i]
		p.state[pg] = cp.State
		p.owned[pg] = cp.Owned
		p.dirOwner[pg] = cp.DirOwner
		if cp.Data != nil {
			if len(cp.Data) != p.seg.PageSize {
				return fmt.Errorf("dsm: checkpoint page %d has %d bytes, page size is %d",
					pg, len(cp.Data), p.seg.PageSize)
			}
			p.seg.CopyPageIn(pg, cp.Data)
		}
	}
	p.twins = make(map[mem.PageID][]byte, len(ck.Twins))
	for pg, tw := range ck.Twins {
		p.twins[pg] = append([]byte(nil), tw...)
	}
	restoreSet := func(dst *pageSet, pages []mem.PageID) error {
		dst.clear()
		for _, pg := range pages {
			if pg < 0 || int(pg) >= len(ck.Pages) {
				return fmt.Errorf("dsm: checkpoint names page %d of %d", pg, len(ck.Pages))
			}
			dst.add(pg)
		}
		return nil
	}
	if err := restoreSet(&p.writtenPages, ck.Written); err != nil {
		return err
	}
	if err := restoreSet(&p.pendingInval, ck.PendingInval); err != nil {
		return err
	}
	p.locks = make(map[int]*lockState, len(ck.Locks))
	for _, lk := range ck.Locks {
		ls := &lockState{
			holding:           lk.Holding,
			releasedUngranted: lk.ReleasedUngranted,
			lastRelV:          lk.LastRelV,
			lastHolder:        lk.LastHolder,
		}
		if lk.RelVC != nil {
			ls.relVC = lk.RelVC.Copy()
		}
		p.locks[lk.ID] = ls
	}
	p.log = interval.NewLog()
	for _, r := range ck.Log {
		p.log.Add(r)
	}
	p.epochRecords = ck.EpochRecords
	p.store = interval.NewBitmapStore()
	for _, en := range ck.Bitmaps {
		p.store.Put(en.ID, en.Page, en.Write, en.Bits)
	}
	p.races = ck.Races
	p.st = ck.St
	if ck.HasMaster {
		if p.id != 0 {
			return fmt.Errorf("dsm: master checkpoint restored at non-master proc %d", p.id)
		}
		p.tree.epoch = ck.BarEpoch
		if ck.HasDet && p.sys.detector != nil {
			p.sys.detector.RestoreState(ck.Det)
		}
	}
	return nil
}

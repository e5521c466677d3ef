package dsm

import (
	"fmt"

	"lrcrace/internal/castore"
	"lrcrace/internal/costmodel"
	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"
	"lrcrace/internal/vc"
)

// pageState is a process's access right to its local copy of a page,
// emulating the mprotect-based states of a real software DSM.
type pageState uint8

const (
	pageInvalid pageState = iota
	pageReadOnly
	pageWritable
)

// pageSet is a set of pages with constant-time membership and insertion: a
// flag per page plus the list of flagged pages, so that enumerating and
// clearing cost the set's size, not the segment's.
type pageSet struct {
	has   []bool
	pages []mem.PageID // the set flags of has, in insertion order
}

func newPageSet(numPages int) pageSet { return pageSet{has: make([]bool, numPages)} }

func (s *pageSet) add(pg mem.PageID) {
	if !s.has[pg] {
		s.has[pg] = true
		s.pages = append(s.pages, pg)
	}
}

func (s *pageSet) clear() {
	for _, pg := range s.pages {
		s.has[pg] = false
	}
	s.pages = s.pages[:0]
}

// sorted returns the members as a fresh sorted list (nil when empty).
func (s *pageSet) sorted() []mem.PageID {
	out := append([]mem.PageID(nil), s.pages...)
	interval.SortPages(out)
	return out
}

// lockState tracks one lock at one process (holder-side and manager-side
// state live together; the manager role applies only to locks this process
// manages).
type lockState struct {
	holding  bool
	awaiting bool  // request sent, grant not yet received
	lastRelV int64 // virtual time of our last release of this lock

	// relVC is the releaser's version vector at its most recent release of
	// this lock: the knowledge horizon a grant may carry. Records learned
	// after the release are not ordered before the matching acquire.
	relVC vc.VC

	// releasedUngranted is the grant obligation of a completed tenure: we
	// released the lock but no successor has been granted yet. A forward
	// arriving in this state targets that finished tenure and must be
	// granted immediately — even if we are already re-requesting the lock
	// ourselves (queueing it would deadlock the chain).
	releasedUngranted bool

	pending []pendingGrant // forwarded requests waiting for our release

	// manager role
	lastHolder int // last proc the manager granted/forwarded to; -1 = free
}

type pendingGrant struct {
	requester int
	theirVC   vc.VC
	arrV      int64
}

// Stats are per-process counters; virtual-time fields are in nanoseconds.
type Stats struct {
	SharedReads, SharedWrites int64
	PrivateAccesses           int64
	ReadFaults, WriteFaults   int64
	IntervalsCreated          int64
	LockAcquires, Barriers    int64
	DiffsFlushed, DiffWords   int64

	ComputeOps int64

	// Virtual-time overhead attribution (Figure 3 components).
	TProcCall    int64 // procedure-call part of instrumentation
	TAccessCheck int64 // analysis-routine body
	TCVMMods     int64 // interval/notice structure setup (CVM modifications)
	TIntervalCmp int64 // master-side concurrent-interval search (proc 0)
	TBitmapCmp   int64 // master-side bitmap comparison (proc 0)

	// Bandwidth attribution.
	ReadNoticeBytes int64 // wire bytes of read notices this proc sent
	SyncMsgBytes    int64 // wire bytes of record-carrying sync messages sent
	BitmapsCreated  int64
	BitmapsSent     int64

	// Comparison-work attribution: check-list entries and bitmap pairs
	// THIS process compared. Under the serial check both land entirely at
	// process 0; under Config.ShardedCheck they spread across the owners
	// of each epoch's shards.
	CheckEntriesCompared int64
	BitmapsCompared      int64
}

// Proc is one DSM process: a coroutine running the user's code against the
// shared-memory API, and the protocol handlers the scheduler calls for each
// message delivered to it (sched.go). Both touch its state without a lock:
// the scheduler runs one of them at a time.
type Proc struct {
	sys   *System
	id, n int
	tel   telemetry.Scope // the owning System's telemetry destination

	// The cost model (costmodel.Default) and the parts of sys.cfg every
	// shared access consults, copied at newProc (the configuration is
	// immutable once the System exists) so that the access path reads them
	// from the Proc it already holds.
	model           costmodel.Model
	proto           ProtocolKind
	detecting       bool
	writesFromDiffs bool
	tracer          Tracer
	crashable       bool // some crash plan targets this process

	seg *mem.Segment

	state     []pageState
	owned     []bool          // single-writer: we are the page's current owner
	expecting []bool          // single-writer: ownership transfer in flight to us
	fetching  []bool          // read fetch in flight (no ownership)
	fetchInv  []bool          // page invalidated while that fetch was in flight
	dirOwner  []int           // directory (home role): current owner of pages homed here; -1 elsewhere
	pendFwd   [][]msg.PageFwd // page requests queued until ownership arrives

	// Multi-writer only: pristine copies for diffing, indexed by page (nil =
	// no twin); twinned lists the twinned pages so a flush visits only them.
	twins   [][]byte
	twinned pageSet

	vcur     vc.VC
	curIndex vc.Index
	epoch    int32

	builder      *interval.Builder
	writtenPages pageSet // pages write-faulted in the open interval
	pendingInval pageSet // ERC: pages to invalidate at next release
	store        *interval.BitmapStore
	log          *interval.Log
	epochRecords []*interval.Record

	locks map[int]*lockState

	// The application coroutine and its scheduling state (sched.go).
	resume  func() (struct{}, bool)
	stop    func()
	park    func(struct{}) bool
	run     runState
	waitOp  string            // what a blocked coroutine waits for
	abort   any               // the panic a blocked coroutine is resumed to raise
	replies []simnet.Delivery // handled responses the application has not taken
	crashed bool              // an injected crash killed the process

	// ckptKey names, per page, the chunk the page's copy was last
	// deposited under or restored from, and ckptClean marks the pages whose
	// bytes are still exactly that chunk's. A clean page's next checkpoint
	// re-references its chunk (castore.Store.Ref) without reading the page.
	// The protocol knows every change, so the mark is cleared off the
	// access path: when an interval closes, for the pages it wrote or
	// twinned, and where a page is replaced, diffed or invalidated
	// (markDirty). A clean page's chunk stays resident: the process's
	// latest checkpoint, which retention never collects, references it.
	// Both are nil until the first checkpoint or restore, so a fresh
	// process is all dirty.
	ckptKey   []castore.Key
	ckptClean []bool

	// Barrier arrival/reduction state (every process; see tree.go).
	tree *treeState

	// The open bitmap round, if any (every process); shardPend parks round
	// messages arriving before our release. See shard.go.
	shard     *shardState
	shardPend []simnet.Delivery

	st   Stats
	vnow int64

	// Crash-plan trigger counters (see crash.go); only the victim's are
	// ever advanced, shared across plans targeting this process.
	// firedCrash is the plan that killed this process.
	crashAccesses int
	crashLocks    int
	firedCrash    *CrashPlan

	// Scratch reused from barrier to barrier: each bitmap round's
	// per-sender state (openCheckRound), what sendBitmaps builds, and
	// flushDiffs' diff buffer; the length of the last checkpoint manifest.
	roundFrom   []bool
	roundSource [][]msg.BitmapEntry
	bitmaps     bitmapScratch
	diffBuf     []msg.DiffEntry
	manifestLen int
}

func newProc(s *System, id int) *Proc {
	n := s.cfg.NumProcs
	p := &Proc{
		sys:          s,
		id:           id,
		n:            n,
		tel:          s.tel,
		seg:          mem.NewSegment(s.layout),
		state:        make([]pageState, s.layout.NumPages),
		owned:        make([]bool, s.layout.NumPages),
		expecting:    make([]bool, s.layout.NumPages),
		fetching:     make([]bool, s.layout.NumPages),
		fetchInv:     make([]bool, s.layout.NumPages),
		dirOwner:     make([]int, s.layout.NumPages),
		pendFwd:      make([][]msg.PageFwd, s.layout.NumPages),
		vcur:         vc.New(n),
		curIndex:     1,
		builder:      interval.NewBuilder(s.layout),
		writtenPages: newPageSet(s.layout.NumPages),
		pendingInval: newPageSet(s.layout.NumPages),
		store:        interval.NewBitmapStore(),
		log:          interval.NewLog(),
		locks:        make(map[int]*lockState),

		model:           costmodel.Default(),
		proto:           s.cfg.Protocol,
		detecting:       s.cfg.Detect,
		writesFromDiffs: s.cfg.WritesFromDiffs,
		tracer:          s.cfg.Tracer,
	}
	p.vcur[id] = 1
	if p.proto == MultiWriter {
		p.twins = make([][]byte, s.layout.NumPages)
		p.twinned = newPageSet(s.layout.NumPages)
	}
	for _, cp := range s.cfg.Crashes {
		p.crashable = p.crashable || cp.Victim == id
	}
	for pg := 0; pg < s.layout.NumPages; pg++ {
		home := pg % n
		if home == id {
			p.dirOwner[pg] = id
		} else {
			p.dirOwner[pg] = -1
		}
		switch p.proto {
		case SingleWriter, EagerRC:
			if home == id {
				p.owned[pg] = true
				p.state[pg] = pageWritable
			}
		case MultiWriter:
			if home == id {
				// The home copy is always current, but it starts (and is
				// re-protected to) read-only so that the home's own first
				// write in each interval takes the protection fault that
				// produces its write notice (and, under WritesFromDiffs,
				// its twin).
				p.state[pg] = pageReadOnly
			}
		}
	}
	p.tree = newTreeState(id, s.cfg.BarrierTree, n)
	return p
}

// release returns p's page frames and twins to the frame pool. Call it
// only on a process nothing reads again: one a rollback replaces.
func (p *Proc) release() {
	p.seg.Release()
	for pg, tw := range p.twins {
		if tw != nil {
			mem.PutFrame(tw)
			p.twins[pg] = nil
		}
	}
}

// ID returns the process number (0..N-1).
func (p *Proc) ID() int { return p.id }

// N returns the number of processes.
func (p *Proc) N() int { return p.n }

// Stats returns a snapshot of the per-process counters.
func (p *Proc) Stats() Stats { return p.st }

// VirtualTime returns the process's virtual clock.
func (p *Proc) VirtualTime() int64 { return p.vnow }

func (p *Proc) home(pg mem.PageID) int { return int(pg) % p.n }

// send transmits m with the given virtual send time, returning wire bytes.
func (p *Proc) send(to int, m msg.Message, vtime int64) int {
	return p.sys.nw.Send(p.id, to, m, vtime)
}

// arrival computes the virtual arrival time of a delivery: per-fragment
// latency plus transmission time for the full payload.
func (p *Proc) arrival(d simnet.Delivery) int64 {
	frags := int64(d.Frags)
	if frags < 1 {
		frags = 1
	}
	m := &p.model
	return d.VTime + frags*m.MsgLatency + int64(float64(d.Bytes)*m.PerByte)
}

// await is every application reply wait: it blocks for the next
// response-class message and advances the virtual clock to the reply's
// arrival. The reply must be an M; anything else is a protocol bug. op
// names the wait in timeouts and bug reports.
func await[M msg.Message](p *Proc, op string) (M, simnet.Delivery) {
	d := p.waitReply(op)
	m, ok := d.Msg.(M)
	if !ok {
		p.protocolBug("%s answered with %T", op, d.Msg)
	}
	p.bumpVTo(p.arrival(d))
	return m, d
}

// barrierBlame derives a crash suspect from the barrier round's
// bookkeeping after a wait on op deadlocked (a timeoutPanic:
// the scheduler raises one in every blocked process when nothing more can
// arrive and no retransmission is pending). At the barrier master it names
// the processes the current round has not heard from; when exactly one is
// missing it becomes the crash suspect. Only a barrier wait may name
// suspects: there, a missing process has demonstrably gone silent.
// During any other wait (a lock grant wedged by a dead holder, say) the
// arrival ledger reflects who has merely not reached the barrier yet —
// this process included — not who died, so the suspect stays -1.
//
// A suspect is named only when exactly one process is missing: with
// several, any of them may merely be wedged behind the dead one (a lock
// chain through the victim stalls every process queued after it), and
// guessing wrongly would roll the blame onto a healthy process. Leave it
// to the link-death detector or the crash plan's ground truth to sharpen.
//
// Every interior node of the barrier tree holds its own coverage ledger,
// so blame is multi-hop: a node missing exactly one DIRECT contribution
// names that child (or itself) — which may itself be a healthy interior
// node wedged behind a deeper victim; the verdicts from every hop are then
// reconciled by noteTimeoutVerdict, where a process that accused someone
// has proven itself alive and so cannot remain the suspect. Under the star
// the root is the only interior node and its direct contributors are all N
// processes. Once the reduction is out, the root reads the ledger of its
// own bitmap round instead.
func (p *Proc) barrierBlame(op string) (suspect int, detail string) {
	suspect = -1
	if op != "barrier release" && op != "barrier bitmap round" {
		return suspect, ""
	}
	var direct, missing []int
	t, sh := p.tree, p.shard
	switch {
	case t.got > 0 && !t.sent:
		// Mid-reduction: the subtree never completed. Name the one missing
		// direct contributor; report the whole uncovered slice of the
		// subtree for the trip message.
		for _, c := range append(treeChildren(p.id, t.arity, p.n), p.id) {
			if !t.from[c] {
				direct = append(direct, c)
			}
		}
		for _, q := range treeSubtree(p.id, t.arity, p.n) {
			if !t.from[q] {
				missing = append(missing, q)
			}
		}
	case p.id == 0 && sh != nil && sh.got < sh.expect:
		for q, ok := range sh.from {
			if !ok {
				missing = append(missing, q)
			}
		}
		direct = missing
	}
	if len(direct) == 1 {
		suspect = direct[0]
	}
	if len(missing) > 0 && len(missing) < p.n {
		detail = fmt.Sprintf(" (no word from %v)", missing)
	}
	return suspect, detail
}

// bumpVTo advances the virtual clock to at least t.
func (p *Proc) bumpVTo(t int64) {
	if t > p.vnow {
		p.vnow = t
	}
}

// --- interval lifecycle (application coroutine only) ---

// closeInterval ends the open interval: flushes diffs (multi-writer),
// materializes the interval record (always, even when empty — one interval
// structure per synchronization operation, as in CVM), logs it, and queues
// it for the next barrier-arrival message. The caller must then call
// startInterval before any further shared access.
func (p *Proc) closeInterval() {
	for _, pg := range p.writtenPages.pages {
		p.markDirty(pg)
	}
	for _, pg := range p.twinned.pages {
		p.markDirty(pg)
	}
	if p.proto == MultiWriter {
		p.flushDiffs()
	}
	var rec *interval.Record
	id := vc.IntervalID{Proc: p.id, Index: p.curIndex}
	if p.detecting {
		nbm := int64(p.builder.BitmapCount())
		p.st.BitmapsCreated += nbm
		rec = p.builder.Finish(id, p.vcur, p.epoch, p.store)
		setup := p.model.IntervalSetup + nbm*p.model.BitmapSetup
		p.vnow += setup
		p.st.TCVMMods += setup
	} else {
		rec = &interval.Record{ID: id, VC: p.vcur.Copy(), Epoch: p.epoch}
		rec.WriteNotices = p.writtenPages.sorted()
	}
	if p.proto == EagerRC {
		for _, pg := range p.writtenPages.pages {
			p.pendingInval.add(pg)
		}
	}
	p.writtenPages.clear()
	p.log.Add(rec)
	p.epochRecords = append(p.epochRecords, rec)
	p.st.IntervalsCreated++
	p.tel.Emit(p.id, telemetry.KIntervalClose, p.vnow,
		int64(rec.ID.Index), int64(len(rec.WriteNotices)), int64(len(rec.ReadNotices)))
}

// startInterval begins the next interval.
func (p *Proc) startInterval() {
	p.curIndex++
	p.vcur[p.id] = p.curIndex
}

// applyIntervals merges foreign interval records received on a
// synchronization message: log them, advance the version vector, and
// invalidate local copies of pages their write notices name.
func (p *Proc) applyIntervals(recs []*interval.Record) {
	for _, r := range recs {
		if r.ID.Proc == p.id {
			continue
		}
		if p.log.Get(r.ID) != nil {
			continue // already applied
		}
		p.log.Add(r)
		if r.ID.Index > p.vcur[r.ID.Proc] {
			p.vcur[r.ID.Proc] = r.ID.Index
		}
		for _, pg := range r.WriteNotices {
			p.invalidate(pg)
		}
	}
}

// invalidate discards the local copy of pg in response to a foreign
// write notice, unless this process's copy is authoritative (single-writer
// owner, or multi-writer home whose copy receives diffs eagerly).
func (p *Proc) invalidate(pg mem.PageID) {
	switch p.proto {
	case SingleWriter, EagerRC:
		if p.owned[pg] || p.expecting[pg] {
			return
		}
	case MultiWriter:
		if p.home(pg) == p.id {
			return
		}
		if p.twins[pg] != nil {
			// Cannot happen: intervals close (and flush) before notices
			// are applied. Guard anyway.
			return
		}
	}
	if p.fetching[pg] {
		// A read fetch is in flight; its reply may carry data older than
		// this invalidation. Let the racing read complete with that legal
		// value, but discard the copy immediately afterwards so later
		// reads re-fetch (matters under ERC, where a handler applies
		// invalidations while the application waits on a fault).
		p.fetchInv[pg] = true
	}
	p.state[pg] = pageInvalid
	p.markDirty(pg)
}

// markDirty records that pg's bytes may no longer be its checkpoint
// chunk's.
func (p *Proc) markDirty(pg mem.PageID) {
	if p.ckptClean != nil {
		p.ckptClean[pg] = false
	}
}

func (p *Proc) lock(id int) *lockState {
	ls := p.locks[id]
	if ls == nil {
		ls = &lockState{lastHolder: -1}
		p.locks[id] = ls
	}
	return ls
}

// --- wire helpers ---

func vcToWire(v vc.VC) []uint32 {
	w := make([]uint32, len(v))
	for i, x := range v {
		w[i] = uint32(x)
	}
	return w
}

func vcFromWire(w []uint32) vc.VC {
	v := make(vc.VC, len(w))
	for i, x := range w {
		v[i] = vc.Index(x)
	}
	return v
}

// recordSyncSend accounts the bandwidth of a record-carrying message.
func (p *Proc) recordSyncSend(recs []*interval.Record, wireBytes int) {
	p.st.SyncMsgBytes += int64(wireBytes)
	p.st.ReadNoticeBytes += int64(msg.RecordReadNoticeBytes(recs))
}

func (p *Proc) protocolBug(format string, args ...interface{}) {
	panic(fmt.Sprintf("dsm: proc %d: protocol bug: %s", p.id, fmt.Sprintf(format, args...)))
}

package msg

import (
	"fmt"
	"reflect"

	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/race"
	"lrcrace/internal/vc"
)

// Type discriminates wire messages.
type Type uint8

const (
	TInvalid Type = iota

	// Lock protocol (3-hop: requester → manager → last holder → requester).
	TAcquireReq
	TAcquireFwd
	TAcquireGrant

	// Page coherence.
	TPageReq   // fault: fetch a copy (Write selects ownership transfer under single-writer)
	TPageFwd   // home directory forwards the request to the current owner
	TPageReply // page contents (plus ownership under single-writer writes)

	// Multi-writer (home-based) protocol.
	TDiffFlush // releaser sends per-page diffs to the page's home
	TDiffAck

	// Eager release consistency: invalidations pushed at release.
	TInval
	TInvalAck

	// Barrier protocol, including the race detector's extra round.
	TBarrierArrive
	TBarrierRelease
	TBitmapReply
	TBarrierDone

	// Reliability sublayer (internal/reliable): CVM-style end-to-end
	// retransmission over a lossy wire. RelData wraps one marshaled
	// protocol message with a per-link sequence number and a piggybacked
	// cumulative acknowledgment; RelAck is a pure acknowledgment sent when
	// there is no reverse traffic to ride on.
	TRelData
	TRelAck

	// Sharded race check (Config.ShardedCheck): a shard owner's — or an
	// interior reduction-tree node's — merged race candidates and
	// comparison-work counters, sent to its tree parent.
	TShardResult

	// Combining-tree barrier (Config.BarrierTree): an interior node's merged
	// subtree reduction to its tree parent. Arrivals and the release travel
	// as BarrierArrive / BarrierRelease under every topology.
	TTreeReduce
)

// String names t after its message struct (TPageReq is "PageReq").
func (t Type) String() string {
	if m := newMessage(t); m != nil {
		return reflect.TypeOf(m).Elem().Name()
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// NumTypes bounds Type values for stats arrays.
const NumTypes = int(TTreeReduce) + 1

// Message is a wire message. Its layout method names the fields once, in
// wire order; the same method encodes them (Marshal) and decodes them
// (Unmarshal).
type Message interface {
	Type() Type
	layout(w Wire)
}

// newMessage returns a zero message of type t, or nil for an unknown type.
func newMessage(t Type) Message {
	switch t {
	case TAcquireReq:
		return &AcquireReq{}
	case TAcquireFwd:
		return &AcquireFwd{}
	case TAcquireGrant:
		return &AcquireGrant{}
	case TPageReq:
		return &PageReq{}
	case TPageFwd:
		return &PageFwd{}
	case TPageReply:
		return &PageReply{}
	case TDiffFlush:
		return &DiffFlush{}
	case TDiffAck:
		return &DiffAck{}
	case TInval:
		return &Inval{}
	case TInvalAck:
		return &InvalAck{}
	case TBarrierArrive:
		return &BarrierArrive{}
	case TBarrierRelease:
		return &BarrierRelease{}
	case TBitmapReply:
		return &BitmapReply{}
	case TBarrierDone:
		return &BarrierDone{}
	case TRelData:
		return &RelData{}
	case TRelAck:
		return &RelAck{}
	case TShardResult:
		return &ShardResult{}
	case TTreeReduce:
		return &TreeReduce{}
	}
	return nil
}

// Marshal serializes m with a leading type byte.
func Marshal(m Message) []byte { return AppendMarshal(nil, m) }

// AppendMarshal appends the bytes Marshal(m) returns to dst and returns the
// extended buffer, so a sender that reuses dst encodes without allocating.
func AppendMarshal(dst []byte, m Message) []byte {
	e := Encoder{buf: dst}
	e.U8(uint8(m.Type()))
	walk(m, Wire{E: &e})
	return e.buf
}

// Unmarshal parses a buffer produced by Marshal. The message it returns
// shares no memory with b.
func Unmarshal(b []byte) (Message, error) {
	d := NewDecoder(b)
	t := Type(d.U8())
	m := newMessage(t)
	if m == nil {
		return nil, fmt.Errorf("msg: unknown type %d: %w", uint8(t), ErrCorrupt)
	}
	walk(m, Wire{D: d})
	if d.err != nil {
		return nil, fmt.Errorf("decoding %v: %w", t, d.err)
	}
	if !d.Done() {
		return nil, fmt.Errorf("decoding %v: %w (trailing bytes)", t, ErrCorrupt)
	}
	return m, nil
}

// walk runs m's layout on w. Each layout is called on its concrete type:
// through the Message interface the encoder or decoder would escape to the
// heap on every message. DiffAck and InvalAck have no fields.
func walk(m Message, w Wire) {
	switch m := m.(type) {
	case *AcquireReq:
		m.layout(w)
	case *AcquireFwd:
		m.layout(w)
	case *AcquireGrant:
		m.layout(w)
	case *PageReq:
		m.layout(w)
	case *PageFwd:
		m.layout(w)
	case *PageReply:
		m.layout(w)
	case *DiffFlush:
		m.layout(w)
	case *Inval:
		m.layout(w)
	case *BarrierArrive:
		m.layout(w)
	case *BarrierRelease:
		m.layout(w)
	case *BitmapReply:
		m.layout(w)
	case *BarrierDone:
		m.layout(w)
	case *RelData:
		m.layout(w)
	case *RelAck:
		m.layout(w)
	case *ShardResult:
		m.layout(w)
	case *TreeReduce:
		m.layout(w)
	}
}

// RecordReadNoticeBytes returns the wire bytes attributable to read notices
// in a set of records — the bandwidth the race detector adds to
// synchronization messages (Table 3, "Msg Ohead").
func RecordReadNoticeBytes(rs []*interval.Record) int {
	n := 0
	for _, r := range rs {
		n += NoticeSize * len(r.ReadNotices)
	}
	return n
}

// --- lock messages ---

// AcquireReq asks the lock's manager for lock Lock; VC is the requester's
// current version vector, which the eventual granter uses to compute the
// interval delta to piggyback.
type AcquireReq struct {
	Lock int32
	VC   []uint32
}

func (*AcquireReq) Type() Type { return TAcquireReq }
func (m *AcquireReq) layout(w Wire) {
	N32(w, &m.Lock)
	w.clock(&m.VC)
}

// AcquireFwd is the manager forwarding a request to the last holder.
type AcquireFwd struct {
	Lock      int32
	Requester int32
	VC        []uint32
}

func (*AcquireFwd) Type() Type { return TAcquireFwd }
func (m *AcquireFwd) layout(w Wire) {
	N32(w, &m.Lock)
	N32(w, &m.Requester)
	w.clock(&m.VC)
}

// AcquireGrant hands the lock to the requester, carrying the interval
// records the granter has seen but the requester has not (including their
// write notices and, for race detection, read notices).
type AcquireGrant struct {
	Lock      int32
	Intervals []*interval.Record
}

func (*AcquireGrant) Type() Type { return TAcquireGrant }
func (m *AcquireGrant) layout(w Wire) {
	N32(w, &m.Lock)
	w.Records(&m.Intervals)
}

// --- page messages ---

// PageReq is a page-fault fetch, sent to the page's home. Under the
// single-writer protocol Write requests ownership migration.
type PageReq struct {
	Page  mem.PageID
	Write bool
}

func (*PageReq) Type() Type { return TPageReq }
func (m *PageReq) layout(w Wire) {
	N32(w, &m.Page)
	w.Flag(&m.Write)
}

// PageFwd is the home directory forwarding a fault to the current owner.
type PageFwd struct {
	Page      mem.PageID
	Requester int32
	Write     bool
}

func (*PageFwd) Type() Type { return TPageFwd }
func (m *PageFwd) layout(w Wire) {
	N32(w, &m.Page)
	N32(w, &m.Requester)
	w.Flag(&m.Write)
}

// PageReply delivers page contents; Ownership marks a single-writer
// ownership transfer. Data is the one part of a sent message its receiver
// owns: the sender hands it over as a frame of its own, and a decoded
// PageReply's Data is a buffer from the page-frame pool (mem.GetFrame).
type PageReply struct {
	Page      mem.PageID
	Ownership bool
	Data      []byte
}

func (*PageReply) Type() Type { return TPageReply }
func (m *PageReply) layout(w Wire) {
	N32(w, &m.Page)
	w.Flag(&m.Ownership)
	w.blob(&m.Data)
}

// --- multi-writer diffs ---

// DiffEntry is one modified word of a page: index and new value.
type DiffEntry struct {
	Word uint32
	Val  uint64
}

// DiffFlush carries a page's diff (modified words since the twin was made)
// from a releasing writer to the page's home.
type DiffFlush struct {
	Page    mem.PageID
	Entries []DiffEntry
}

func (*DiffFlush) Type() Type { return TDiffFlush }
func (m *DiffFlush) layout(w Wire) {
	N32(w, &m.Page)
	w.diffs(&m.Entries)
}

// DiffAck acknowledges a DiffFlush (releases must not complete before the
// home has applied the diff).
type DiffAck struct{}

func (*DiffAck) Type() Type  { return TDiffAck }
func (*DiffAck) layout(Wire) {}

// Inval carries the page invalidations a releaser pushes to every other
// process under eager release consistency (ERC). Under LRC the same
// information travels lazily as write notices on synchronization messages;
// the eager broadcast is exactly the traffic LRC exists to avoid.
type Inval struct {
	Pages []mem.PageID
}

func (*Inval) Type() Type      { return TInval }
func (m *Inval) layout(w Wire) { w.Pages(&m.Pages) }

// InvalAck acknowledges an Inval: an ERC release may not complete until
// every process has applied the invalidations.
type InvalAck struct{}

func (*InvalAck) Type() Type  { return TInvalAck }
func (*InvalAck) layout(Wire) {}

// --- barrier messages ---

// BarrierArrive carries a worker's epoch intervals (with read and write
// notices) and current vector to the barrier master.
type BarrierArrive struct {
	Epoch     int32
	VC        []uint32
	Intervals []*interval.Record
}

func (*BarrierArrive) Type() Type { return TBarrierArrive }
func (m *BarrierArrive) layout(w Wire) {
	N32(w, &m.Epoch)
	w.clock(&m.VC)
	w.Records(&m.Intervals)
}

// BarrierRelease is the master's release: the union of epoch intervals (so
// every process can apply all write notices), the new global vector, and
// the race detector's check list. NeedBitmaps tells workers whether the
// extra bitmap round will happen.
//
// Under Config.ShardedCheck, ShardOwner is parallel to Check and names the
// process that owns each entry's comparison (race.PartitionCheckList); the
// distinct owners are the shard owners every process sends its BitmapReply
// slices to, instead of N-to-1 at the master. Empty ShardOwner means the
// serial check: all bitmaps go to process 0.
type BarrierRelease struct {
	Epoch       int32
	GlobalVC    []uint32
	Intervals   []*interval.Record
	Check       []race.CheckEntry
	ShardOwner  []int32
	NeedBitmaps bool
}

func (*BarrierRelease) Type() Type { return TBarrierRelease }
func (m *BarrierRelease) layout(w Wire) {
	N32(w, &m.Epoch)
	w.clock(&m.GlobalVC)
	w.Records(&m.Intervals)
	w.checks(&m.Check)
	w.owners(&m.ShardOwner)
	w.Flag(&m.NeedBitmaps)
}

// BitmapEntry returns the access bitmaps of one (interval, page) named by
// the check list.
type BitmapEntry struct {
	Proc  int32
	Index uint32
	Page  mem.PageID
	Read  mem.Bitmap
	Write mem.Bitmap
}

// BitmapReply carries a worker's bitmaps for the check-list entries that
// name its intervals — the second barrier round.
type BitmapReply struct {
	Epoch   int32
	Entries []BitmapEntry
}

func (*BitmapReply) Type() Type { return TBitmapReply }
func (m *BitmapReply) layout(w Wire) {
	N32(w, &m.Epoch)
	w.bitmaps(&m.Entries)
}

// BarrierDone ends the bitmap round, delivering the races the master found
// in this epoch; workers may now discard the epoch's bitmaps.
type BarrierDone struct {
	Epoch int32
	Races []race.Report
}

func (*BarrierDone) Type() Type { return TBarrierDone }
func (m *BarrierDone) layout(w Wire) {
	N32(w, &m.Epoch)
	w.Reports(&m.Races)
}

// --- reliability sublayer envelopes ---

// RelData is one reliably-delivered protocol message on a directed link:
// Payload is the marshaled inner message, Seq its per-link sequence number
// (first message is 1), and Ack the cumulative acknowledgment of the
// reverse direction (every message of the peer's stream up to and
// including Ack has been received) — the piggyback CVM uses to avoid pure
// acknowledgment traffic on request/reply exchanges.
type RelData struct {
	Seq     uint32
	Ack     uint32
	Payload []byte
}

func (*RelData) Type() Type { return TRelData }
func (m *RelData) layout(w Wire) {
	N32(w, &m.Seq)
	N32(w, &m.Ack)
	w.blob(&m.Payload)
}

// RelAck is a pure cumulative acknowledgment, sent by a delayed-ack timer
// (or on receipt of a duplicate) when no reverse RelData is available to
// piggyback on.
type RelAck struct {
	Ack uint32
}

func (*RelAck) Type() Type      { return TRelAck }
func (m *RelAck) layout(w Wire) { N32(w, &m.Ack) }

// ShardResult carries a subtree's merged race candidates up the binary
// reduction tree of the sharded check: the sender's own shard comparison
// output (race.CompareShard) merged with the results of its tree children,
// plus the comparison-work counters the master needs to keep race.Stats —
// and therefore checkpoints — identical to the serial path's.
type ShardResult struct {
	Epoch           int32
	Races           []race.Report
	BitmapsCompared int64
	WordOverlaps    int64
}

// Type implements Message.
func (*ShardResult) Type() Type { return TShardResult }
func (m *ShardResult) layout(w Wire) {
	N32(w, &m.Epoch)
	w.Reports(&m.Races)
	N64(w, &m.BitmapsCompared)
	N64(w, &m.WordOverlaps)
}

// --- combining-tree barrier ---

// TreeReduce carries a fully-reduced subtree up one hop of the combining
// tree: the merged interval records and vector of every process in the
// sender's subtree, the subtree's earliest arrival (for the skew gauge),
// every check entry built in the subtree (race.PartialBuilder at each
// node, merged with race.MergeCheckLists), in canonical (A, B, Page)
// order, and the subtree's build work counters so the root's race.Stats
// stay byte-identical to the serial master's.
type TreeReduce struct {
	Epoch     int32
	VC        []uint32
	Intervals []*interval.Record
	MinArr    int64
	Entries   []race.CheckEntry

	PairComparisons  int64
	ConcurrentPairs  int64
	OverlappingPairs int64
	NoticesScanned   int64
}

// Type implements Message.
func (*TreeReduce) Type() Type { return TTreeReduce }
func (m *TreeReduce) layout(w Wire) {
	N32(w, &m.Epoch)
	w.clock(&m.VC)
	w.Records(&m.Intervals)
	N64(w, &m.MinArr)
	w.checks(&m.Entries)
	N64(w, &m.PairComparisons)
	N64(w, &m.ConcurrentPairs)
	N64(w, &m.OverlappingPairs)
	N64(w, &m.NoticesScanned)
}

// --- wire shapes ---

// Wire walks one layout in one direction: it encodes into E when D is nil
// and decodes from D otherwise. It travels by value, so a concrete layout
// call keeps the decoder on the caller's stack. The message layouts above
// are its first user; the checkpoint manifest (internal/dsm) is its second,
// so interval records and race reports have one encoding in both.
type Wire struct {
	E *Encoder
	D *Decoder
}

// N8, N16, N32 and N64 move a fixed-width number of any integer type whose
// values fit the width. N32 decodes an int sign-extended, so -1 survives.
func N8[T ~uint8](w Wire, p *T) {
	if w.D != nil {
		*p = T(w.D.U8())
	} else {
		w.E.U8(uint8(*p))
	}
}

func N16[T ~uint16 | ~int](w Wire, p *T) {
	if w.D != nil {
		*p = T(w.D.U16())
	} else {
		w.E.U16(uint16(*p))
	}
}

func N32[T ~int32 | ~uint32 | ~int](w Wire, p *T) {
	if w.D != nil {
		*p = T(int32(w.D.U32()))
	} else {
		w.E.U32(uint32(*p))
	}
}

func N64[T ~int64 | ~uint64 | ~int](w Wire, p *T) {
	if w.D != nil {
		*p = T(w.D.U64())
	} else {
		w.E.U64(uint64(*p))
	}
}

// Flag moves a bool as one byte, 1 for true. Any other nonzero byte is
// ErrCorrupt, so an accepted buffer re-encodes to the bytes it came from.
func (w Wire) Flag(p *bool) {
	if w.D == nil {
		var b uint8
		if *p {
			b = 1
		}
		w.E.U8(b)
		return
	}
	switch w.D.U8() {
	case 0:
		*p = false
	case 1:
		*p = true
	default:
		w.D.Fail(ErrCorrupt)
	}
}

// Count moves the 32-bit length of a list whose elements take at least
// minSize bytes each. Decoding, it reports false when the rest of the
// buffer cannot hold that many. The list shapes below leave a decoded list
// nil when it is empty.
func (w Wire) Count(n, minSize int) (int, bool) {
	if w.D == nil {
		w.E.U32(uint32(n))
		return n, true
	}
	n = int(w.D.U32())
	return n, !w.D.err2(minSize * n)
}

// clock moves a version vector in its message form: a 16-bit count, then
// one 32-bit entry per process.
func (w Wire) clock(p *[]uint32) {
	if w.D == nil {
		w.E.U16(uint16(len(*p)))
		for _, x := range *p {
			w.E.U32(x)
		}
		return
	}
	n := int(w.D.U16())
	if w.D.err2(4 * n) {
		return
	}
	v := make([]uint32, n)
	for i := range v {
		v[i] = w.D.U32()
	}
	*p = v
}

// VC moves a version vector in its record form.
func (w Wire) VC(p *vc.VC) {
	if w.D != nil {
		*p = w.D.VC()
	} else {
		w.E.VC(*p)
	}
}

func (w Wire) blob(p *[]byte) {
	if w.D != nil {
		*p = w.D.Blob()
	} else {
		w.E.Blob(*p)
	}
}

// Pages moves a page list.
func (w Wire) Pages(p *[]mem.PageID) {
	if w.D != nil {
		*p = w.D.Pages()
	} else {
		w.E.Pages(*p)
	}
}

func (w Wire) bitmap(p *mem.Bitmap) {
	if w.D != nil {
		*p = w.D.Bitmap()
	} else {
		w.E.Bitmap(*p)
	}
}

// ID moves an interval identifier.
func (w Wire) ID(p *vc.IntervalID) {
	if w.D != nil {
		*p = w.D.IntervalID()
	} else {
		w.E.IntervalID(*p)
	}
}

// Record moves one interval record.
func (w Wire) Record(r *interval.Record) { w.record(r, nil, 1) }

// record moves one interval record. Decoding, it carves the record's VC
// from *slab, which has room for up to left vectors (see Decoder.vcFrom);
// a nil slab gives the VC an allocation of its own.
func (w Wire) record(r *interval.Record, slab *vc.VC, left int) {
	w.ID(&r.ID)
	if w.D != nil {
		r.VC = w.D.vcFrom(slab, left)
	} else {
		w.E.VC(r.VC)
	}
	N32(w, &r.Epoch)
	w.Pages(&r.WriteNotices)
	w.Pages(&r.ReadNotices)
}

// Records moves a counted list of interval records (20 bytes at least
// each: ID, empty VC, epoch, two empty notice lists). Decoding, the records
// share one []interval.Record slab and their VCs one vc.VC slab, instead
// of one allocation per record and per vector.
func (w Wire) Records(p *[]*interval.Record) {
	n, ok := w.Count(len(*p), 20)
	if !ok {
		return
	}
	if w.D == nil {
		for _, r := range *p {
			w.Record(r)
		}
		return
	}
	if n == 0 {
		return
	}
	recs := make([]interval.Record, n)
	ptrs := make([]*interval.Record, n)
	var vcs vc.VC
	for i := range recs {
		ptrs[i] = &recs[i]
		w.record(&recs[i], &vcs, n-i)
	}
	*p = ptrs
}

func (w Wire) checks(p *[]race.CheckEntry) {
	n, ok := w.Count(len(*p), 16)
	if !ok {
		return
	}
	if w.D != nil && n > 0 {
		*p = make([]race.CheckEntry, n)
	}
	for i := range *p {
		c := &(*p)[i]
		w.ID(&c.A)
		w.ID(&c.B)
		N32(w, &c.Page)
	}
}

func (w Wire) owners(p *[]int32) {
	n, ok := w.Count(len(*p), 4)
	if !ok {
		return
	}
	if w.D != nil && n > 0 {
		*p = make([]int32, n)
	}
	for i := range *p {
		N32(w, &(*p)[i])
	}
}

func (w Wire) report(r *race.Report) {
	N32(w, &r.Page)
	N32(w, &r.Word)
	N64(w, &r.Addr)
	N32(w, &r.Epoch)
	w.ID(&r.A.Interval)
	N8(w, &r.A.Kind)
	w.ID(&r.B.Interval)
	N8(w, &r.B.Kind)
}

// Reports moves a counted list of race reports (34 bytes each).
func (w Wire) Reports(p *[]race.Report) {
	n, ok := w.Count(len(*p), 34)
	if !ok {
		return
	}
	if w.D != nil && n > 0 {
		*p = make([]race.Report, n)
	}
	for i := range *p {
		w.report(&(*p)[i])
	}
}

func (w Wire) diffs(p *[]DiffEntry) {
	n, ok := w.Count(len(*p), 12)
	if !ok {
		return
	}
	if w.D != nil && n > 0 {
		*p = make([]DiffEntry, n)
	}
	for i := range *p {
		N32(w, &(*p)[i].Word)
		N64(w, &(*p)[i].Val)
	}
}

func (w Wire) bitmaps(p *[]BitmapEntry) {
	n, ok := w.Count(len(*p), 20)
	if !ok {
		return
	}
	if w.D != nil && n > 0 {
		*p = make([]BitmapEntry, n)
	}
	for i := range *p {
		be := &(*p)[i]
		N32(w, &be.Proc)
		N32(w, &be.Index)
		N32(w, &be.Page)
		w.bitmap(&be.Read)
		w.bitmap(&be.Write)
	}
}

package msg

import (
	"fmt"

	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/race"
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

var typeNames = map[Type]string{
	TAcquireReq: "AcquireReq", TAcquireFwd: "AcquireFwd", TAcquireGrant: "AcquireGrant",
	TPageReq: "PageReq", TPageFwd: "PageFwd", TPageReply: "PageReply",
	TDiffFlush: "DiffFlush", TDiffAck: "DiffAck",
	TInval: "Inval", TInvalAck: "InvalAck",
	TBarrierArrive: "BarrierArrive", TBarrierRelease: "BarrierRelease",
	TBitmapReply: "BitmapReply", TBarrierDone: "BarrierDone",
	TRelData: "RelData", TRelAck: "RelAck",
	TShardResult: "ShardResult",
	TTreeReduce:  "TreeReduce",
}

func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// NumTypes bounds Type values for stats arrays.
const NumTypes = int(TTreeReduce) + 1

// Message is a wire message.
type Message interface {
	Type() Type
	encode(e *Encoder)
}

// Marshal serializes m with a leading type byte.
func Marshal(m Message) []byte {
	var e Encoder
	e.U8(uint8(m.Type()))
	m.encode(&e)
	return e.Bytes()
}

// Unmarshal parses a buffer produced by Marshal.
func Unmarshal(b []byte) (Message, error) {
	d := NewDecoder(b)
	t := Type(d.U8())
	var m Message
	switch t {
	case TAcquireReq:
		m = decodeAcquireReq(d)
	case TAcquireFwd:
		m = decodeAcquireFwd(d)
	case TAcquireGrant:
		m = decodeAcquireGrant(d)
	case TPageReq:
		m = decodePageReq(d)
	case TPageFwd:
		m = decodePageFwd(d)
	case TPageReply:
		m = decodePageReply(d)
	case TDiffFlush:
		m = decodeDiffFlush(d)
	case TDiffAck:
		m = &DiffAck{}
	case TInval:
		m = decodeInval(d)
	case TInvalAck:
		m = &InvalAck{}
	case TBarrierArrive:
		m = decodeBarrierArrive(d)
	case TBarrierRelease:
		m = decodeBarrierRelease(d)
	case TBitmapReply:
		m = decodeBitmapReply(d)
	case TBarrierDone:
		m = decodeBarrierDone(d)
	case TRelData:
		m = decodeRelData(d)
	case TRelAck:
		m = &RelAck{Ack: d.U32()}
	case TShardResult:
		m = decodeShardResult(d)
	case TTreeReduce:
		m = decodeTreeReduce(d)
	default:
		return nil, fmt.Errorf("msg: unknown type %d: %w", uint8(t), ErrCorrupt)
	}
	if err := finish(d, t); err != nil {
		return nil, err
	}
	return m, nil
}

// --- interval record encoding ---

// EncodeRecord writes one interval record through e — the same encoding the
// lock-grant and barrier messages use. Exported so the checkpoint codec
// (internal/dsm) can serialize interval logs byte-compatibly with the wire.
func EncodeRecord(e *Encoder, r *interval.Record) {
	e.IntervalID(r.ID)
	e.VC(r.VC)
	e.I32(r.Epoch)
	e.Pages(r.WriteNotices)
	e.Pages(r.ReadNotices)
}

// DecodeRecord is the inverse of EncodeRecord.
func DecodeRecord(d *Decoder) *interval.Record {
	r := &interval.Record{}
	r.ID = d.IntervalID()
	r.VC = d.VC()
	r.Epoch = d.I32()
	r.WriteNotices = d.Pages()
	r.ReadNotices = d.Pages()
	return r
}

func encodeRecord(e *Encoder, r *interval.Record) { EncodeRecord(e, r) }

func decodeRecord(d *Decoder) *interval.Record { return DecodeRecord(d) }

func encodeRecords(e *Encoder, rs []*interval.Record) {
	e.U32(uint32(len(rs)))
	for _, r := range rs {
		encodeRecord(e, r)
	}
}

func decodeRecords(d *Decoder) []*interval.Record {
	n := int(d.U32())
	if d.err2(n) { // each record is >1 byte; cheap sanity bound
		return nil
	}
	rs := make([]*interval.Record, 0, n)
	for i := 0; i < n; i++ {
		rs = append(rs, decodeRecord(d))
	}
	return rs
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
func (m *AcquireReq) encode(e *Encoder) {
	e.I32(m.Lock)
	e.U16(uint16(len(m.VC)))
	for _, x := range m.VC {
		e.U32(x)
	}
}
func decodeAcquireReq(d *Decoder) *AcquireReq {
	m := &AcquireReq{Lock: d.I32()}
	n := int(d.U16())
	if d.err2(4 * n) {
		return m
	}
	m.VC = make([]uint32, n)
	for i := range m.VC {
		m.VC[i] = d.U32()
	}
	return m
}

// AcquireFwd is the manager forwarding a request to the last holder.
type AcquireFwd struct {
	Lock      int32
	Requester int32
	VC        []uint32
}

func (*AcquireFwd) Type() Type { return TAcquireFwd }
func (m *AcquireFwd) encode(e *Encoder) {
	e.I32(m.Lock)
	e.I32(m.Requester)
	e.U16(uint16(len(m.VC)))
	for _, x := range m.VC {
		e.U32(x)
	}
}
func decodeAcquireFwd(d *Decoder) *AcquireFwd {
	m := &AcquireFwd{Lock: d.I32(), Requester: d.I32()}
	n := int(d.U16())
	if d.err2(4 * n) {
		return m
	}
	m.VC = make([]uint32, n)
	for i := range m.VC {
		m.VC[i] = d.U32()
	}
	return m
}

// AcquireGrant hands the lock to the requester, carrying the interval
// records the granter has seen but the requester has not (including their
// write notices and, for race detection, read notices).
type AcquireGrant struct {
	Lock      int32
	Intervals []*interval.Record
}

func (*AcquireGrant) Type() Type { return TAcquireGrant }
func (m *AcquireGrant) encode(e *Encoder) {
	e.I32(m.Lock)
	encodeRecords(e, m.Intervals)
}
func decodeAcquireGrant(d *Decoder) *AcquireGrant {
	return &AcquireGrant{Lock: d.I32(), Intervals: decodeRecords(d)}
}

// --- page messages ---

// PageReq is a page-fault fetch, sent to the page's home. Under the
// single-writer protocol Write requests ownership migration.
type PageReq struct {
	Page  mem.PageID
	Write bool
}

func (*PageReq) Type() Type { return TPageReq }
func (m *PageReq) encode(e *Encoder) {
	e.I32(int32(m.Page))
	if m.Write {
		e.U8(1)
	} else {
		e.U8(0)
	}
}
func decodePageReq(d *Decoder) *PageReq {
	return &PageReq{Page: mem.PageID(d.I32()), Write: d.U8() == 1}
}

// PageFwd is the home directory forwarding a fault to the current owner.
type PageFwd struct {
	Page      mem.PageID
	Requester int32
	Write     bool
}

func (*PageFwd) Type() Type { return TPageFwd }
func (m *PageFwd) encode(e *Encoder) {
	e.I32(int32(m.Page))
	e.I32(m.Requester)
	if m.Write {
		e.U8(1)
	} else {
		e.U8(0)
	}
}
func decodePageFwd(d *Decoder) *PageFwd {
	return &PageFwd{Page: mem.PageID(d.I32()), Requester: d.I32(), Write: d.U8() == 1}
}

// PageReply delivers page contents; Ownership marks a single-writer
// ownership transfer.
type PageReply struct {
	Page      mem.PageID
	Ownership bool
	Data      []byte
}

func (*PageReply) Type() Type { return TPageReply }
func (m *PageReply) encode(e *Encoder) {
	e.I32(int32(m.Page))
	if m.Ownership {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.Blob(m.Data)
}
func decodePageReply(d *Decoder) *PageReply {
	return &PageReply{Page: mem.PageID(d.I32()), Ownership: d.U8() == 1, Data: d.Blob()}
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
func (m *DiffFlush) encode(e *Encoder) {
	e.I32(int32(m.Page))
	e.U32(uint32(len(m.Entries)))
	for _, de := range m.Entries {
		e.U32(de.Word)
		e.U64(de.Val)
	}
}
func decodeDiffFlush(d *Decoder) *DiffFlush {
	m := &DiffFlush{Page: mem.PageID(d.I32())}
	n := int(d.U32())
	if d.err2(12 * n) {
		return m
	}
	m.Entries = make([]DiffEntry, n)
	for i := range m.Entries {
		m.Entries[i] = DiffEntry{Word: d.U32(), Val: d.U64()}
	}
	return m
}

// DiffAck acknowledges a DiffFlush (releases must not complete before the
// home has applied the diff).
type DiffAck struct{}

func (*DiffAck) Type() Type      { return TDiffAck }
func (*DiffAck) encode(*Encoder) {}

// Inval carries the page invalidations a releaser pushes to every other
// process under eager release consistency (ERC). Under LRC the same
// information travels lazily as write notices on synchronization messages;
// the eager broadcast is exactly the traffic LRC exists to avoid.
type Inval struct {
	Pages []mem.PageID
}

func (*Inval) Type() Type          { return TInval }
func (m *Inval) encode(e *Encoder) { e.Pages(m.Pages) }
func decodeInval(d *Decoder) *Inval {
	return &Inval{Pages: d.Pages()}
}

// InvalAck acknowledges an Inval: an ERC release may not complete until
// every process has applied the invalidations.
type InvalAck struct{}

func (*InvalAck) Type() Type      { return TInvalAck }
func (*InvalAck) encode(*Encoder) {}

// --- barrier messages ---

// BarrierArrive carries a worker's epoch intervals (with read and write
// notices) and current vector to the barrier master.
type BarrierArrive struct {
	Epoch     int32
	VC        []uint32
	Intervals []*interval.Record
}

func (*BarrierArrive) Type() Type { return TBarrierArrive }
func (m *BarrierArrive) encode(e *Encoder) {
	e.I32(m.Epoch)
	e.U16(uint16(len(m.VC)))
	for _, x := range m.VC {
		e.U32(x)
	}
	encodeRecords(e, m.Intervals)
}
func decodeBarrierArrive(d *Decoder) *BarrierArrive {
	m := &BarrierArrive{Epoch: d.I32()}
	n := int(d.U16())
	if d.err2(4 * n) {
		return m
	}
	m.VC = make([]uint32, n)
	for i := range m.VC {
		m.VC[i] = d.U32()
	}
	m.Intervals = decodeRecords(d)
	return m
}

// CheckEntry mirrors race.CheckEntry on the wire.

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
func (m *BarrierRelease) encode(e *Encoder) {
	e.I32(m.Epoch)
	e.U16(uint16(len(m.GlobalVC)))
	for _, x := range m.GlobalVC {
		e.U32(x)
	}
	encodeRecords(e, m.Intervals)
	e.U32(uint32(len(m.Check)))
	for _, c := range m.Check {
		e.IntervalID(c.A)
		e.IntervalID(c.B)
		e.I32(int32(c.Page))
	}
	e.U32(uint32(len(m.ShardOwner)))
	for _, o := range m.ShardOwner {
		e.I32(o)
	}
	if m.NeedBitmaps {
		e.U8(1)
	} else {
		e.U8(0)
	}
}
func decodeBarrierRelease(d *Decoder) *BarrierRelease {
	m := &BarrierRelease{Epoch: d.I32()}
	n := int(d.U16())
	if d.err2(4 * n) {
		return m
	}
	m.GlobalVC = make([]uint32, n)
	for i := range m.GlobalVC {
		m.GlobalVC[i] = d.U32()
	}
	m.Intervals = decodeRecords(d)
	nc := int(d.U32())
	if d.err2(nc) {
		return m
	}
	m.Check = make([]race.CheckEntry, 0, nc)
	for i := 0; i < nc; i++ {
		var c race.CheckEntry
		c.A = d.IntervalID()
		c.B = d.IntervalID()
		c.Page = mem.PageID(d.I32())
		m.Check = append(m.Check, c)
	}
	no := int(d.U32())
	if d.err2(4 * no) {
		return m
	}
	if no > 0 {
		m.ShardOwner = make([]int32, no)
		for i := range m.ShardOwner {
			m.ShardOwner[i] = d.I32()
		}
	}
	m.NeedBitmaps = d.U8() == 1
	return m
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
func (m *BitmapReply) encode(e *Encoder) {
	e.I32(m.Epoch)
	e.U32(uint32(len(m.Entries)))
	for _, be := range m.Entries {
		e.I32(be.Proc)
		e.U32(be.Index)
		e.I32(int32(be.Page))
		e.Bitmap(be.Read)
		e.Bitmap(be.Write)
	}
}
func decodeBitmapReply(d *Decoder) *BitmapReply {
	m := &BitmapReply{Epoch: d.I32()}
	n := int(d.U32())
	if d.err2(n) {
		return m
	}
	m.Entries = make([]BitmapEntry, 0, n)
	for i := 0; i < n; i++ {
		var be BitmapEntry
		be.Proc = d.I32()
		be.Index = d.U32()
		be.Page = mem.PageID(d.I32())
		be.Read = d.Bitmap()
		be.Write = d.Bitmap()
		m.Entries = append(m.Entries, be)
	}
	return m
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
func (m *RelData) encode(e *Encoder) {
	e.U32(m.Seq)
	e.U32(m.Ack)
	e.Blob(m.Payload)
}
func decodeRelData(d *Decoder) *RelData {
	return &RelData{Seq: d.U32(), Ack: d.U32(), Payload: d.Blob()}
}

// RelAck is a pure cumulative acknowledgment, sent by a delayed-ack timer
// (or on receipt of a duplicate) when no reverse RelData is available to
// piggyback on.
type RelAck struct {
	Ack uint32
}

func (*RelAck) Type() Type          { return TRelAck }
func (m *RelAck) encode(e *Encoder) { e.U32(m.Ack) }

// BarrierDone ends the bitmap round, delivering the races the master found
// in this epoch; workers may now discard the epoch's bitmaps.
type BarrierDone struct {
	Epoch int32
	Races []race.Report
}

func (*BarrierDone) Type() Type { return TBarrierDone }
func (m *BarrierDone) encode(e *Encoder) {
	e.I32(m.Epoch)
	e.U32(uint32(len(m.Races)))
	for _, r := range m.Races {
		EncodeReport(e, r)
	}
}
func decodeBarrierDone(d *Decoder) *BarrierDone {
	m := &BarrierDone{Epoch: d.I32()}
	n := int(d.U32())
	if d.err2(n) {
		return m
	}
	m.Races = make([]race.Report, 0, n)
	for i := 0; i < n; i++ {
		m.Races = append(m.Races, DecodeReport(d))
	}
	return m
}

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
func (m *ShardResult) encode(e *Encoder) {
	e.I32(m.Epoch)
	e.U32(uint32(len(m.Races)))
	for _, r := range m.Races {
		EncodeReport(e, r)
	}
	e.U64(uint64(m.BitmapsCompared))
	e.U64(uint64(m.WordOverlaps))
}
func decodeShardResult(d *Decoder) *ShardResult {
	m := &ShardResult{Epoch: d.I32()}
	n := int(d.U32())
	if d.err2(n) {
		return m
	}
	m.Races = make([]race.Report, 0, n)
	for i := 0; i < n; i++ {
		m.Races = append(m.Races, DecodeReport(d))
	}
	m.BitmapsCompared = int64(d.U64())
	m.WordOverlaps = int64(d.U64())
	return m
}

// --- combining-tree barrier ---

// TreeReduce carries a fully-reduced subtree up one hop of the combining
// tree: the merged interval records and vector of every process in the
// sender's subtree, the subtree's earliest arrival (for the skew gauge),
// the partial check list the sender built over its cross-contribution
// pairs (race.BuildPartialCheckList), and that build's work counters so
// the root's race.Stats stay byte-identical to the serial master's.
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
func (m *TreeReduce) encode(e *Encoder) {
	e.I32(m.Epoch)
	e.U16(uint16(len(m.VC)))
	for _, x := range m.VC {
		e.U32(x)
	}
	encodeRecords(e, m.Intervals)
	e.I64(m.MinArr)
	e.U32(uint32(len(m.Entries)))
	for _, c := range m.Entries {
		e.IntervalID(c.A)
		e.IntervalID(c.B)
		e.I32(int32(c.Page))
	}
	e.I64(m.PairComparisons)
	e.I64(m.ConcurrentPairs)
	e.I64(m.OverlappingPairs)
	e.I64(m.NoticesScanned)
}
func decodeTreeReduce(d *Decoder) *TreeReduce {
	m := &TreeReduce{Epoch: d.I32()}
	n := int(d.U16())
	if d.err2(4 * n) {
		return m
	}
	m.VC = make([]uint32, n)
	for i := range m.VC {
		m.VC[i] = d.U32()
	}
	m.Intervals = decodeRecords(d)
	m.MinArr = d.I64()
	nc := int(d.U32())
	if d.err2(nc) {
		return m
	}
	m.Entries = make([]race.CheckEntry, 0, nc)
	for i := 0; i < nc; i++ {
		var c race.CheckEntry
		c.A = d.IntervalID()
		c.B = d.IntervalID()
		c.Page = mem.PageID(d.I32())
		m.Entries = append(m.Entries, c)
	}
	m.PairComparisons = d.I64()
	m.ConcurrentPairs = d.I64()
	m.OverlappingPairs = d.I64()
	m.NoticesScanned = d.I64()
	return m
}

// EncodeReport writes one race report through e — the BarrierDone encoding,
// exported for the checkpoint codec.
func EncodeReport(e *Encoder, r race.Report) {
	e.I32(int32(r.Page))
	e.U32(uint32(r.Word))
	e.U64(uint64(r.Addr))
	e.I32(r.Epoch)
	e.IntervalID(r.A.Interval)
	e.U8(uint8(r.A.Kind))
	e.IntervalID(r.B.Interval)
	e.U8(uint8(r.B.Kind))
}

// DecodeReport is the inverse of EncodeReport.
func DecodeReport(d *Decoder) race.Report {
	var r race.Report
	r.Page = mem.PageID(d.I32())
	r.Word = int(d.U32())
	r.Addr = mem.Addr(d.U64())
	r.Epoch = d.I32()
	r.A.Interval = d.IntervalID()
	r.A.Kind = race.AccessKind(d.U8())
	r.B.Interval = d.IntervalID()
	r.B.Kind = race.AccessKind(d.U8())
	return r
}

package dsm

import (
	"cmp"
	"sort"

	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/race"
	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"
	"lrcrace/internal/vc"
)

// The barrier pipeline, continued: scatter → compare → fold → done.
//
// A release with a non-empty check list opens a bitmap round — step 5 of
// the detection procedure — at every process:
//
//  1. The release names an owner for every check entry. Under
//     Config.ShardedCheck the root partitions the entries by page across
//     the N processes (race.PartitionCheckList) and ships the assignment
//     as BarrierRelease.ShardOwner; without it the release carries no
//     assignment, which means process 0 owns the whole list — the paper's
//     serial check at the barrier master.
//  2. Every process sends one BitmapReply per owner — the slice of its
//     bitmaps that owner's entries name. An owner therefore collects
//     exactly N replies.
//  3. Each owner compares its shard (race.CompareShard). Under the sharded
//     check the results then flow up a binary reduction tree: node p merges
//     its own shard output with the ShardResults of children 2p+1 and 2p+2
//     and forwards the merge to parent (p-1)/2. The single owner of the
//     serial check is the root itself, so there is no fan-in.
//  4. The root folds the total into the detector
//     (Detector.FoldShardResults): canonical re-sort, §6.4 first-race
//     filtering, stats accumulation — race.State comes out identical
//     however the list was split — and broadcasts BarrierDone.
//
// The round's messages can arrive ahead of the BarrierRelease that opens
// it (the reliable layer retransmits across links independently), so early
// deliveries park in Proc.shardPend until openCheckRound drains them.

// shardState is one process's state for the current epoch's bitmap round.
// It exists from the arrival of a BarrierRelease with NeedBitmaps until the
// process has forwarded its subtree's merged result (or, at the root,
// broadcast BarrierDone).
type shardState struct {
	epoch   int32
	reduce  bool              // sharded: results fan in up the binary tree, KShard* events
	entries []race.CheckEntry // this process's shard of the check list

	release *msg.BarrierRelease // what opened the round; the root's finish reads it

	expect int // bitmap replies to collect: n if owner, else 0
	got    int
	from   []bool              // which procs' replies have arrived
	maxArr int64               // latest virtual arrival among replies
	source [][]msg.BitmapEntry // source[q]: q's reply entries, in (index, page) order

	kidsLeft int // reduction-tree children yet to report
	childV   int64
	reports  []race.Report // own shard output merged with children's
	bmCmp    int64
	wordOv   int64

	localDone bool  // own shard compared (immediately true for non-owners)
	localV    int64 // virtual completion time of the local compare
}

// compareEntries orders one process's bitmap entries by (index, page).
func compareEntries(a, b msg.BitmapEntry) int {
	return cmp.Or(cmp.Compare(a.Index, b.Index), cmp.Compare(a.Page, b.Page))
}

// Bitmaps implements race.BitmapSource over the shard's collected replies.
func (s *shardState) Bitmaps(id vc.IntervalID, p mem.PageID) (read, write mem.Bitmap) {
	if uint(id.Proc) >= uint(len(s.source)) {
		return nil, nil
	}
	ents, idx := s.source[id.Proc], uint32(id.Index)
	i := sort.Search(len(ents), func(i int) bool {
		e := &ents[i]
		return e.Index > idx || e.Index == idx && e.Page >= p
	})
	if i == len(ents) || ents[i].Index != idx || ents[i].Page != p {
		return nil, nil
	}
	return ents[i].Read, ents[i].Write
}

// shardArity is the arity of the sharded check's reduction tree: the same
// implicit heap as the barrier tree (treeParent, treeChildren), binary.
const shardArity = 2

// openCheckRound is called by the release handler, in message order,
// when a release with NeedBitmaps arrives: it derives this process's
// shard, its reply expectation, and its reduction fan-in, then drains any
// round messages that arrived early.
func (p *Proc) openCheckRound(d simnet.Delivery, m *msg.BarrierRelease) {
	if p.shard != nil {
		p.protocolBug("release for epoch %d while epoch %d bitmap round is open", m.Epoch, p.shard.epoch)
	}
	if p.roundFrom == nil {
		p.roundFrom, p.roundSource = make([]bool, p.n), make([][]msg.BitmapEntry, p.n)
	}
	clear(p.roundFrom)
	clear(p.roundSource)
	sh := &shardState{
		epoch:   m.Epoch,
		release: m,
		reduce:  len(m.ShardOwner) > 0,
		from:    p.roundFrom,
		source:  p.roundSource,
		localV:  p.arrival(d) + p.model.Handler,
	}
	if sh.reduce {
		sh.kidsLeft = len(treeChildren(p.id, shardArity, p.n))
		mine := 0
		for _, o := range m.ShardOwner {
			if int(o) == p.id {
				mine++
			}
		}
		if mine > 0 {
			sh.entries = make([]race.CheckEntry, 0, mine)
			for i, c := range m.Check {
				if int(m.ShardOwner[i]) == p.id {
					sh.entries = append(sh.entries, c)
				}
			}
		}
	} else if p.id == 0 {
		sh.entries = m.Check
	}
	// An owner owed only empty replies still collects n of them: reply
	// count, not content, is what closes the round deterministically.
	if len(sh.entries) > 0 {
		sh.expect = p.n
	} else {
		sh.localDone = true
	}
	p.shard = sh
	pend := p.shardPend
	p.shardPend = nil
	for _, pd := range pend {
		p.dispatchShard(pd)
	}
	p.advanceShard()
}

// bufferShard parks a round message that arrived before this
// process's BarrierRelease for its epoch.
func (p *Proc) bufferShard(d simnet.Delivery) {
	p.shardPend = append(p.shardPend, d)
}

// dispatchShard is the handler for the bitmap round's two messages,
// BitmapReply and ShardResult, and routes one (possibly buffered earlier)
// against the current round's state.
func (p *Proc) dispatchShard(d simnet.Delivery) {
	switch m := d.Msg.(type) {
	case *msg.BitmapReply:
		p.shardBitmap(d, m)
	case *msg.ShardResult:
		p.shardResult(d, m)
	default:
		p.protocolBug("non-round message %T in the bitmap round", d.Msg)
	}
}

func (p *Proc) shardBitmap(d simnet.Delivery, m *msg.BitmapReply) {
	sh := p.shard
	if sh == nil || m.Epoch > sh.epoch {
		p.bufferShard(d)
		return
	}
	if m.Epoch < sh.epoch {
		p.protocolBug("BitmapReply for epoch %d during shard round %d", m.Epoch, sh.epoch)
	}
	if sh.expect == 0 {
		p.protocolBug("BitmapReply at non-owner p%d", p.id)
	}
	if sh.from[d.From] {
		p.protocolBug("duplicate BitmapReply from p%d", d.From)
	}
	// A process returns bitmaps of its own intervals only, each (interval,
	// page) once and in (index, page) order: anything else would make the
	// lookup ambiguous. The reply is frozen (Transport), so its entries
	// become the source as they are.
	for i, e := range m.Entries {
		if int(e.Proc) != d.From {
			p.protocolBug("BitmapReply from p%d carries a bitmap of interval (%d, %d) page %d",
				d.From, e.Proc, e.Index, e.Page)
		}
		if i == 0 {
			continue
		}
		switch c := compareEntries(m.Entries[i-1], e); {
		case c == 0:
			p.protocolBug("BitmapReply from p%d carries interval (%d, %d) page %d twice",
				d.From, e.Proc, e.Index, e.Page)
		case c > 0:
			p.protocolBug("BitmapReply from p%d carries interval (%d, %d) page %d out of order",
				d.From, e.Proc, e.Index, e.Page)
		}
	}
	sh.source[d.From] = m.Entries
	if arr := p.arrival(d); arr > sh.maxArr {
		sh.maxArr = arr
	}
	sh.from[d.From] = true
	sh.got++
	if sh.got < sh.expect {
		return
	}

	// All replies in: compare this shard. The work is charged to THIS
	// process — the point of sharding is that the comparison cost lands
	// where it runs, visible in the per-proc counters and timings.
	model := p.model
	reports, st := race.CompareShard(p.sys.layout, sh.entries, sh, sh.epoch)
	work := int64(st.BitmapsCompared) * model.BitmapCompare
	p.st.TBitmapCmp += work
	p.st.CheckEntriesCompared += int64(len(sh.entries))
	p.st.BitmapsCompared += int64(st.BitmapsCompared)
	v := sh.maxArr + model.Handler
	if sh.localV > v {
		v = sh.localV
	}
	sh.localV = v + work
	sh.reports = append(sh.reports, reports...)
	sh.bmCmp += int64(st.BitmapsCompared)
	sh.wordOv += int64(st.WordOverlaps)
	sh.localDone = true
	sh.source = nil // the shard's bitmaps are spent
	if sh.reduce {
		p.tel.Emit(p.id, telemetry.KShardCompare, sh.localV,
			int64(len(sh.entries)), int64(st.BitmapsCompared), work)
	}
	p.advanceShard()
}

func (p *Proc) shardResult(d simnet.Delivery, m *msg.ShardResult) {
	sh := p.shard
	if sh == nil || m.Epoch > sh.epoch {
		p.bufferShard(d)
		return
	}
	if m.Epoch < sh.epoch {
		p.protocolBug("ShardResult for epoch %d during shard round %d", m.Epoch, sh.epoch)
	}
	if sh.kidsLeft == 0 {
		p.protocolBug("ShardResult from p%d with no children outstanding", d.From)
	}
	sh.reports = append(sh.reports, m.Races...)
	sh.bmCmp += m.BitmapsCompared
	sh.wordOv += m.WordOverlaps
	if arr := p.arrival(d) + p.model.Handler; arr > sh.childV {
		sh.childV = arr
	}
	sh.kidsLeft--
	p.advanceShard()
}

// advanceShard completes this process's role in the round once its
// own shard is compared and every reduction child has reported: the root
// folds and broadcasts; under the sharded check every other process
// forwards its merge to its parent.
func (p *Proc) advanceShard() {
	sh := p.shard
	if sh == nil || !sh.localDone || sh.kidsLeft > 0 {
		return
	}
	sendV := max(sh.localV, sh.childV)
	switch {
	case p.id == 0:
		p.finishCheck(sh, sendV)
	case sh.reduce:
		p.tel.Emit(p.id, telemetry.KShardReduce, sendV,
			int64(sh.epoch), int64(len(sh.reports)), int64(len(treeChildren(p.id, shardArity, p.n))))
		p.send(treeParent(p.id, shardArity), &msg.ShardResult{
			Epoch:           sh.epoch,
			Races:           sh.reports,
			BitmapsCompared: sh.bmCmp,
			WordOverlaps:    sh.wordOv,
		}, sendV)
	}
	p.shard = nil
}

// finishCheck is the root's round completion: fold the round's merged
// results into the detector — restoring the canonical report order and
// applying §6.4 filtering, so race.State (and therefore checkpoints) come
// out the same however the check list was split — then broadcast
// BarrierDone.
func (p *Proc) finishCheck(sh *shardState, doneV int64) {
	det := p.sys.detector
	races := det.FoldShardResults(sh.reports, race.ShardStats{
		BitmapsCompared: int(sh.bmCmp),
		WordOverlaps:    int(sh.wordOv),
	}, sh.epoch)
	det.Retain(races, sh.release.Intervals)

	p.tel.Emit(p.id, telemetry.KRaceCheck, doneV,
		int64(len(sh.release.Check)), sh.bmCmp, int64(len(races)))
	for _, r := range races {
		ww := int64(0)
		if r.WriteWrite() {
			ww = 1
		}
		p.tel.Emit(p.id, telemetry.KRaceFound, doneV, int64(r.Addr), int64(r.Epoch), ww)
	}
	done := &msg.BarrierDone{Epoch: sh.epoch, Races: races}
	for q := 0; q < p.n; q++ {
		p.send(q, done, doneV)
	}
}

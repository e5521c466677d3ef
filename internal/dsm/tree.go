package dsm

import (
	"sort"

	"lrcrace/internal/interval"
	"lrcrace/internal/msg"
	"lrcrace/internal/race"
	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"
	"lrcrace/internal/vc"
)

// The barrier pipeline: arrive → reduce → build → release.
//
// Every barrier runs over an implicit-heap tree rooted at process 0
// (children of p are kp+1…kp+k, parent ⌊(p−1)/k⌋). Config.BarrierTree picks
// the arity k; 0 is the star, arity N−1, whose only interior node is the
// root — the paper's centralized barrier master. Every process sends its
// BarrierArrive to its parent, interior nodes to themselves, so a node's
// own contribution enters the reduction through the same handler as its
// children's. A node waits for its own arrival plus one
// fully-reduced contribution per child, merges their interval records and
// vectors, runs the partial check-list build over the pairs that first meet
// at this node (race.PartialBuilder — every cross-process pair spans two
// contributions at exactly one node, the LCA of the two processes), merges
// its own canonical-order list with its children's sorted lists
// (race.MergeCheckLists), and forwards one TreeReduce to its parent. The
// root's list is therefore already the canonical check list — under the
// star every pair meets at the root and its build is the whole list — and
// the root folds it into the detector (race.FoldCheckLists) and sends
// itself the BarrierRelease.
//
// The release cascades down the same tree: every node forwards the copy it
// received to its children before departing (Transport.Forward). The
// release is serialized once, by the root's self-send, for its byte count;
// every forward charges the wire those bytes again but delivers the same
// message, so all N processes share the one release the root built, frozen
// like every sent message, and read it only.
// Under the star that is the root's N-way broadcast, every copy stamped
// with the root's send time.
// Under a tree forwarding is cut-through, not store-and-forward: a node
// re-stamps the copy one header latency after its parent's send time, so
// the payload's transmission delay is charged once per receiver (in
// arrival()) rather than once per hop, and each extra tree level costs one
// MsgLatency, not a full re-serialization of the records and check list.
//
// Epoch safety needs no buffering: a node forwards the release to a child
// before resetting its own per-epoch state, and the child cannot reach the
// next barrier — let alone contribute to it — before receiving that
// release, so per-link FIFO guarantees a contribution never arrives at a
// parent still holding the previous epoch.

// treeParent returns the combining-tree parent of proc id under arity k.
func treeParent(id, k int) int { return (id - 1) / k }

// treeChildren returns the tree children of proc id under arity k with n
// processes, in ascending order.
func treeChildren(id, k, n int) []int {
	var kids []int
	for c := k*id + 1; c <= k*id+k && c < n; c++ {
		kids = append(kids, c)
	}
	return kids
}

// treeSubtree returns every process in the subtree rooted at id (id
// included), in ascending order.
func treeSubtree(id, k, n int) []int {
	out := []int{id}
	for i := 0; i < len(out); i++ {
		out = append(out, treeChildren(out[i], k, n)...)
	}
	sort.Ints(out)
	return out
}

// treeState is one process's per-epoch barrier bookkeeping. Leaves have
// expect == 0 and contribute nothing locally; interior nodes (and the
// root) collect expect = len(children)+1 contributions — their own arrival
// travels through the network as a self-addressed BarrierArrive so every
// contribution takes the same path.
type treeState struct {
	arity  int
	star   bool // Config.BarrierTree == 0: no release re-stamp, no KTree* events
	expect int

	epoch int32
	got   int
	sent  bool // this epoch's reduction (or root release) has been emitted

	// from marks which processes the collected contributions cover — a
	// BarrierArrive covers its sender, a TreeReduce covers the sender's whole
	// subtree. Only this node's own subtree positions are ever set; the
	// coverage ledger is what multi-hop crash blame reads.
	from []bool

	records []*interval.Record
	groups  [][]*interval.Record // one group per contribution, for the partial build
	gvc     vc.VC
	maxArr  int64
	minArr  int64 // earliest arrival in the subtree; -1 = none yet

	runs   [][]race.CheckEntry // children's sorted lists, frozen: read only
	merged race.BuildStats

	// build and partial are the check-list build's scratch, kept across
	// epochs: what leaves the node is merged into a list of its own.
	build   race.PartialBuilder
	partial []race.CheckEntry
}

// newTreeState lays out process id's node for Config.BarrierTree = k.
func newTreeState(id, k, n int) *treeState {
	star := k == 0
	if star {
		k = max(n-1, 1)
	}
	t := &treeState{
		arity:  k,
		star:   star,
		gvc:    vc.New(n),
		minArr: -1,
		from:   make([]bool, n),
	}
	if kids := treeChildren(id, k, n); len(kids) > 0 || id == 0 {
		t.expect = len(kids) + 1
	}
	return t
}

// clear resets the per-epoch fields (everything but arity/expect/epoch).
func (t *treeState) clear() {
	t.got = 0
	t.sent = false
	t.records = nil
	clear(t.groups)
	t.groups = t.groups[:0]
	clear(t.runs)
	t.runs = t.runs[:0]
	t.merged = race.BuildStats{}
	t.maxArr = 0
	t.minArr = -1
	clear(t.gvc)
	clear(t.from)
}

// handleBarrierArrive merges one process's own barrier arrival into this
// node's reduction (interior nodes and the root only — including the node's
// own self-addressed arrival).
func (p *Proc) handleBarrierArrive(d simnet.Delivery, m *msg.BarrierArrive) {
	t := p.tree
	if t.expect == 0 {
		p.protocolBug("BarrierArrive at a tree leaf")
	}
	if m.Epoch != t.epoch {
		p.protocolBug("BarrierArrive for epoch %d during epoch %d", m.Epoch, t.epoch)
	}
	arrV := p.arrival(d)
	p.treeContribute(d.From, []int{d.From}, m.Intervals, vcFromWire(m.VC), arrV, arrV, nil, race.BuildStats{})
}

// handleTreeReduce merges a child's fully-reduced subtree into this node's
// reduction.
func (p *Proc) handleTreeReduce(d simnet.Delivery, m *msg.TreeReduce) {
	t := p.tree
	if t.expect == 0 {
		p.protocolBug("TreeReduce at a tree leaf")
	}
	if m.Epoch != t.epoch {
		p.protocolBug("TreeReduce for epoch %d during epoch %d", m.Epoch, t.epoch)
	}
	bst := race.BuildStats{
		PairComparisons:  m.PairComparisons,
		ConcurrentPairs:  m.ConcurrentPairs,
		OverlappingPairs: m.OverlappingPairs,
		NoticesScanned:   m.NoticesScanned,
	}
	p.treeContribute(d.From, treeSubtree(d.From, t.arity, p.n),
		m.Intervals, vcFromWire(m.VC), p.arrival(d), m.MinArr, m.Entries, bst)
}

// treeContribute records one contribution (an arrival or a subtree
// reduction) covering the given processes, and completes the node once
// every expected contribution is in.
func (p *Proc) treeContribute(from int, covers []int, recs []*interval.Record,
	v vc.VC, arrV, minArr int64, entries []race.CheckEntry, bst race.BuildStats) {
	t := p.tree
	for _, q := range covers {
		if t.from[q] {
			p.protocolBug("duplicate tree contribution covering p%d (from p%d, epoch %d)", q, from, t.epoch)
		}
		t.from[q] = true
	}
	t.records = append(t.records, recs...)
	t.groups = append(t.groups, recs)
	t.gvc.Merge(v)
	if arrV > t.maxArr {
		t.maxArr = arrV
	}
	if minArr >= 0 && (t.minArr < 0 || minArr < t.minArr) {
		t.minArr = minArr
	}
	t.runs = append(t.runs, entries)
	t.merged.Add(bst)
	t.got++
	if t.got == t.expect {
		p.treeComplete()
	}
}

// treeComplete runs when the node's subtree is fully reduced: the
// partial check-list build over this node's cross-contribution pairs, then
// either one TreeReduce up (interior node) or the fold and release (root).
func (p *Proc) treeComplete() {
	t := p.tree
	if t.sent {
		p.protocolBug("tree reduction for epoch %d already sent", t.epoch)
	}
	model := p.model
	var work int64
	var entries []race.CheckEntry
	if p.sys.cfg.Detect {
		var bst race.BuildStats
		t.partial, bst = t.build.Build(t.partial[:0], t.groups)
		work = bst.PairComparisons*model.IntervalCompare + bst.NoticesScanned*model.PageOverlap
		p.st.TIntervalCmp += work
		t.merged.Add(bst)
		entries = t.mergeRuns()
	}
	doneV := t.maxArr + model.Handler + work
	t.sent = true

	if p.id != 0 {
		p.tel.Emit(p.id, telemetry.KTreeReduce, doneV, int64(t.epoch), int64(len(t.records)), work)
		red := &msg.TreeReduce{
			Epoch:            t.epoch,
			VC:               vcToWire(t.gvc),
			Intervals:        t.records,
			MinArr:           t.minArr,
			Entries:          entries,
			PairComparisons:  t.merged.PairComparisons,
			ConcurrentPairs:  t.merged.ConcurrentPairs,
			OverlappingPairs: t.merged.OverlappingPairs,
			NoticesScanned:   t.merged.NoticesScanned,
		}
		nbytes := p.send(treeParent(p.id, t.arity), red, doneV)
		p.recordSyncSend(t.records, nbytes)
		return
	}

	// Root: every interval of the epoch is here, complete and current, and
	// entries is the canonical check list. Fold it into the detector and
	// release.
	var check []race.CheckEntry
	if p.sys.cfg.Detect {
		check = p.sys.detector.FoldCheckLists(len(t.records), entries, t.merged)
	}
	p.tel.Emit(p.id, telemetry.KBarrierRelease, doneV,
		int64(t.epoch), int64(len(t.records)), t.maxArr-t.minArr)
	rel := &msg.BarrierRelease{
		Epoch:       t.epoch,
		GlobalVC:    vcToWire(t.gvc),
		Intervals:   t.records,
		Check:       check,
		NeedBitmaps: len(check) > 0,
	}
	if p.sys.cfg.ShardedCheck && len(check) > 0 {
		rel.ShardOwner = race.PartitionCheckList(check, p.n)
	}
	// One self-send starts the cascade; handleBarrierRelease forwards to the
	// children — sending copies here too would deliver the release twice.
	nbytes := p.send(p.id, rel, doneV)
	p.recordSyncSend(t.records, nbytes)
}

// mergeRuns merges the children's lists and this node's partial list, each
// in canonical order, into one new list in canonical order: the node's
// contribution to its TreeReduce, or at the root the check list.
func (t *treeState) mergeRuns() []race.CheckEntry {
	t.runs = append(t.runs, t.partial)
	n := 0
	for _, r := range t.runs {
		n += len(r)
	}
	if n == 0 {
		return nil
	}
	return race.MergeCheckLists(make([]race.CheckEntry, 0, n), t.runs...)
}

// handleBarrierRelease runs at every process when its copy of the release
// arrives: forward the cascade to the tree children FIRST — before
// resetting, so per-link FIFO keeps next-epoch contributions behind this
// epoch's release — then reset the per-epoch tree state, open the epoch's
// bitmap round if there is one (before the application can observe the
// release, so its sendBitmaps never meets an unopened round), and hand the
// release to the application. The forwarded copy may be m itself, shared
// with every process below this one, so nothing here or downstream writes
// to it.
func (p *Proc) handleBarrierRelease(d simnet.Delivery, m *msg.BarrierRelease) {
	t := p.tree
	// The star's root broadcasts: every copy carries the root's send time.
	// A tree node forwards cut-through: the copy leaves one header latency
	// after the parent's send time, while the payload is still streaming in,
	// so a child's arrival() charges the transmission delay once end-to-end
	// instead of once per hop.
	fwdV := d.VTime
	if !t.star {
		fwdV += p.model.MsgLatency
	}
	kids := treeChildren(p.id, t.arity, p.n)
	for _, c := range kids {
		nbytes := p.sys.nw.Forward(p.id, c, d, fwdV)
		p.recordSyncSend(m.Intervals, nbytes)
	}
	if !t.star {
		p.tel.Emit(p.id, telemetry.KTreeRelease, p.arrival(d)+p.model.Handler,
			int64(m.Epoch), int64(len(kids)), 0)
	}
	p.resetTree(m.Epoch)
	if m.NeedBitmaps {
		p.openCheckRound(d, m)
	}
	p.reply(d)
}

// resetTree advances the tree state past the released epoch, clearing
// every per-epoch field so the next epoch starts from a clean slate even if
// this round ended abnormally. Idempotent: a stale call for an
// already-reset epoch is a no-op.
func (p *Proc) resetTree(epoch int32) {
	t := p.tree
	if t.epoch != epoch {
		return
	}
	t.epoch++
	t.clear()
}

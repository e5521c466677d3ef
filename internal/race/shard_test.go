package race

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/vc"
)

// racyEpochRecords builds one record per address, all mutually concurrent,
// each writing its address — addrs on the same page in different processes
// therefore race word-for-word.
func racyEpochRecords(t *testing.T, l mem.Layout, epoch int32, addrs ...mem.Addr) ([]*interval.Record, *interval.BitmapStore, int) {
	t.Helper()
	store := interval.NewBitmapStore()
	var recs []*interval.Record
	for i, a := range addrs {
		v := vc.New(len(addrs))
		v[i] = vc.Index(epoch*2 + 1)
		recs = append(recs, build(l, store,
			vc.IntervalID{Proc: i, Index: vc.Index(epoch*2 + 1)},
			v, epoch, nil, []mem.Addr{a}))
	}
	return recs, store, len(addrs)
}

// shardAndFold partitions entries across nprocs, compares each shard
// independently (as the shard owners would), merges in owner order (as a
// reduction tree does — order is arbitrary before the canonical sort), and
// folds the result into d. It is the single-process model of the sharded
// barrier round.
func shardAndFold(d *Detector, l mem.Layout, entries []CheckEntry, src BitmapSource, nprocs int, epoch int32) []Report {
	owners := PartitionCheckList(entries, nprocs)
	var merged []Report
	var total ShardStats
	for q := nprocs - 1; q >= 0; q-- { // deliberately not owner order
		var shard []CheckEntry
		for i, e := range entries {
			if owners[i] == int32(q) {
				shard = append(shard, e)
			}
		}
		reports, st := CompareShard(l, shard, src, epoch)
		merged = append(merged, reports...)
		total.BitmapsCompared += st.BitmapsCompared
		total.WordOverlaps += st.WordOverlaps
	}
	return d.FoldShardResults(merged, total, epoch)
}

func TestPartitionCheckList(t *testing.T) {
	entries := []CheckEntry{
		{Page: 0}, {Page: 0}, {Page: 0},
		{Page: 1}, {Page: 1},
		{Page: 2},
		{Page: 3},
	}
	owners := PartitionCheckList(entries, 3)
	if len(owners) != len(entries) {
		t.Fatalf("len(owners) = %d, want %d", len(owners), len(entries))
	}
	// Page→owner must be a function: all entries of a page share an owner.
	pageOwner := map[mem.PageID]int32{}
	for i, e := range entries {
		if prev, ok := pageOwner[e.Page]; ok && prev != owners[i] {
			t.Errorf("page %d split across owners %d and %d", e.Page, prev, owners[i])
		}
		pageOwner[e.Page] = owners[i]
	}
	// LPT on counts {3,2,1,1} over 3 procs: loads should be {3,2,2}.
	load := map[int32]int{}
	for _, o := range owners {
		load[o]++
	}
	for o, n := range load {
		if n > 3 {
			t.Errorf("owner %d has load %d; partition unbalanced (%v)", o, n, owners)
		}
	}
	// Deterministic: same input, same output.
	again := PartitionCheckList(entries, 3)
	for i := range owners {
		if owners[i] != again[i] {
			t.Fatalf("partition not deterministic at %d: %v vs %v", i, owners, again)
		}
	}
	// Degenerate cases.
	if o := PartitionCheckList(entries, 1); len(o) != len(entries) {
		t.Errorf("nprocs=1: %v", o)
	} else {
		for _, v := range o {
			if v != 0 {
				t.Errorf("nprocs=1 assigned owner %d", v)
			}
		}
	}
	if o := PartitionCheckList(nil, 4); len(o) != 0 {
		t.Errorf("empty entries: %v", o)
	}
}

// TestPropertyShardedMatchesSerial: sharding the check list, comparing each
// shard independently, merging in arbitrary order, and folding at the master
// produces the identical report stream and identical Stats to the serial
// detector — for any worker count.
func TestPropertyShardedMatchesSerial(t *testing.T) {
	l := testLayout(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		recs, store, _ := randomEpoch(r, l)
		nprocs := 1 + r.Intn(8)

		serial := NewDetector(l, Options{})
		sharded := NewDetector(l, Options{})
		e1 := serial.BuildCheckList(recs)
		e2 := sharded.BuildCheckList(recs)

		r1 := serial.Compare(e1, StoreSource{store}, 0)
		r2 := shardAndFold(sharded, l, e2, StoreSource{store}, nprocs, 0)

		if len(r1) != len(r2) {
			t.Logf("seed %d: %d serial vs %d sharded reports", seed, len(r1), len(r2))
			return false
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Logf("seed %d report %d: %+v vs %+v", seed, i, r1[i], r2[i])
				return false
			}
		}
		if serial.Stats() != sharded.Stats() {
			t.Logf("seed %d stats: %+v vs %+v", seed, serial.Stats(), sharded.Stats())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestShardedFirstRaceFiltering: §6.4 suppression behaves identically when
// the comparison ran on shards and the fold applies the filter.
func TestShardedFirstRaceFiltering(t *testing.T) {
	l := testLayout(t)
	serial := NewDetector(l, Options{FirstOnly: true})
	sharded := NewDetector(l, Options{FirstOnly: true})

	run := func(epoch int32, addrs ...mem.Addr) ([]Report, []Report) {
		recs, store, _ := racyEpochRecords(t, l, epoch, addrs...)
		e1 := serial.BuildCheckList(recs)
		e2 := sharded.BuildCheckList(recs)
		return serial.Compare(e1, StoreSource{store}, epoch),
			shardAndFold(sharded, l, e2, StoreSource{store}, 4, epoch)
	}

	// Epoch 0 clean, epoch 1 racy, epoch 2 suppressed.
	for ep, addrs := range [][]mem.Addr{
		{l.PageBase(0), l.PageBase(1)},
		{l.PageBase(2), l.PageBase(2)},
		{l.PageBase(3), l.PageBase(3)},
	} {
		r1, r2 := run(int32(ep), addrs...)
		if len(r1) != len(r2) {
			t.Fatalf("epoch %d: serial %v vs sharded %v", ep, r1, r2)
		}
	}
	if serial.Stats() != sharded.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", serial.Stats(), sharded.Stats())
	}
	if serial.Stats().SuppressedReports == 0 {
		t.Error("scenario exercised no suppression")
	}
}

// TestCompareShardEveryKindPair: when both sides of an entry read and
// write the same word, the word races three ways, and CompareShard and
// Detector.Compare each report exactly write-write, write-read and
// read-write, in that order.
func TestCompareShardEveryKindPair(t *testing.T) {
	l := testLayout(t)
	store := interval.NewBitmapStore()
	x := l.PageBase(1) + 5*mem.WordSize
	recs := []*interval.Record{
		build(l, store, vc.IntervalID{Proc: 0, Index: 1}, vc.VC{1, 0}, 0, []mem.Addr{x}, []mem.Addr{x}),
		build(l, store, vc.IntervalID{Proc: 1, Index: 1}, vc.VC{0, 1}, 0, []mem.Addr{x}, []mem.Addr{x}),
	}
	d := NewDetector(l, Options{})
	entries := d.BuildCheckList(recs)
	if len(entries) != 1 {
		t.Fatalf("check list = %v, want one entry", entries)
	}
	want := [][2]AccessKind{{Write, Write}, {Write, Read}, {Read, Write}}
	check := func(name string, reports []Report) {
		t.Helper()
		if len(reports) != len(want) {
			t.Fatalf("%s: %d reports %v, want %d", name, len(reports), reports, len(want))
		}
		for i, r := range reports {
			if r.A.Kind != want[i][0] || r.B.Kind != want[i][1] || r.Addr != x ||
				r.A.Interval != entries[0].A || r.B.Interval != entries[0].B {
				t.Errorf("%s: report %d = %v, want %v-%v at 0x%x", name, i, r, want[i][0], want[i][1], uint64(x))
			}
		}
	}
	shard, _ := CompareShard(l, entries, StoreSource{store}, 0)
	check("CompareShard", shard)
	check("Detector.Compare", d.Compare(entries, StoreSource{store}, 0))
}

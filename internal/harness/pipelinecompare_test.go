package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"lrcrace/internal/dsm"
	"lrcrace/internal/race"
	"lrcrace/internal/telemetry"
)

func TestPctNSNearestRank(t *testing.T) {
	s := []int64{40, 10, 30, 20}
	for _, tc := range []struct {
		q    float64
		want int64
	}{
		{0.50, 20}, // ceil(0.5*4)=2nd of sorted {10,20,30,40}
		{0.99, 40},
		{0.25, 10},
		{1.00, 40},
	} {
		if got := pctNS(s, tc.q); got != tc.want {
			t.Errorf("pctNS(%v, %v) = %d, want %d", s, tc.q, got, tc.want)
		}
	}
	if got := pctNS(nil, 0.5); got != 0 {
		t.Errorf("pctNS(nil) = %d, want 0", got)
	}
}

// baselinePipeline and shardedPipeline are the two sides of the
// sharded-check comparison.
func baselinePipeline(*dsm.Config)  {}
func shardedPipeline(c *dsm.Config) { c.ShardedCheck = true }

// TestShardSyntheticSpeedup is the measurement path's own check: on the
// check-bound false-sharing workload the sharded barrier wait must be
// strictly below the serial one, over an identical check list and with the
// detector left in identical state.
func TestShardSyntheticSpeedup(t *testing.T) {
	serial, err := falseSharing.run(4, baselinePipeline)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := falseSharing.run(4, shardedPipeline)
	if err != nil {
		t.Fatal(err)
	}
	if serial.entries == 0 || serial.entries != shard.entries {
		t.Fatalf("check-list entries: serial %d, sharded %d; want equal and nonzero", serial.entries, shard.entries)
	}
	if !reflect.DeepEqual(serial.det, shard.det) {
		t.Errorf("detector state differs:\nserial:  %+v\nsharded: %+v", serial.det, shard.det)
	}
	if len(serial.waits) == 0 || len(serial.waits) != len(shard.waits) {
		t.Fatalf("barrier wait samples: serial %d, sharded %d", len(serial.waits), len(shard.waits))
	}
	sp50, dp50 := pctNS(serial.waits, 0.5), pctNS(shard.waits, 0.5)
	if dp50 >= sp50 {
		t.Errorf("sharded p50 wait %dns not below serial %dns", dp50, sp50)
	}
}

// TestPipelineGateRejectsDivergence: a candidate whose run does not leave
// the baseline's races and detector state fails the comparison instead of
// printing a table — on the sharded rows too, which until the two
// experiments were folded had no gate.
func TestPipelineGateRejectsDivergence(t *testing.T) {
	x := NewSuite(0.1, 4).shardExperiment([]int{4})
	x.workloads = x.workloads[:1] // the gated synthetic; TSP is measured, not gated
	if _, err := x.rows(); err != nil {
		t.Fatalf("honest sharded run rejected: %v", err)
	}
	honest := x.workloads[0].run
	for name, breakIt := range map[string]func(*pipelineOutcome){
		"races":          func(o *pipelineOutcome) { o.races = append(o.races, race.Report{}) },
		"detector state": func(o *pipelineOutcome) { o.det.Stats.BitmapsCompared++ },
	} {
		x.workloads[0].run = func(procs int, candidate func(*dsm.Config)) (pipelineOutcome, error) {
			out, err := honest(procs, candidate)
			var probe dsm.Config
			if candidate(&probe); probe.ShardedCheck {
				breakIt(&out)
			}
			return out, err
		}
		var buf bytes.Buffer
		if err := x.table(&buf); err == nil || buf.Len() != 0 {
			t.Errorf("sharded run with broken %s: err = %v, %d table bytes; want an error and no table", name, err, buf.Len())
		}
	}
}

// TestFillMetricsSplitsCheckWorkPerProc: the comparison-work counters must
// be published per process (labeled by proc) rather than as one global
// total silently attributed to the master.
func TestFillMetricsSplitsCheckWorkPerProc(t *testing.T) {
	r := &Result{}
	r.Procs = []dsm.Stats{
		{CheckEntriesCompared: 2, BitmapsCompared: 3},
		{CheckEntriesCompared: 7, BitmapsCompared: 5},
	}
	reg := telemetry.NewRegistry()
	r.FillMetrics(reg)
	snap := reg.Snapshot()

	for key, want := range map[string]int64{
		`race_bitmaps_compared_total{proc="0"}`: 3,
		`race_bitmaps_compared_total{proc="1"}`: 5,
		`race_check_entries_total{proc="0"}`:    2,
		`race_check_entries_total{proc="1"}`:    7,
	} {
		if got := snap.Counters[key]; got != want {
			t.Errorf("snapshot %s = %d, want %d", key, got, want)
		}
	}
	if got := snap.CounterTotal("race_bitmaps_compared_total"); got != 8 {
		t.Errorf("race_bitmaps_compared_total family sums to %d, want 8", got)
	}
	if _, ok := snap.Counters["race_bitmaps_compared_total"]; ok {
		t.Error("unlabeled race_bitmaps_compared_total series still published")
	}

	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `race_check_entries_total{proc="1"} 7`) {
		t.Error("Prometheus exposition missing the per-proc check-entry series")
	}
}

// TestTreeSyntheticIdentity is the measurement path's own honesty check:
// the tree run must reproduce the flat run's races and detector state
// byte-for-byte, over an identical check list, with the deliberate race
// present so the diff proves something.
func TestTreeSyntheticIdentity(t *testing.T) {
	flat, err := lockChain.run(8, baselinePipeline)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := lockChain.run(8, func(c *dsm.Config) { c.BarrierTree = 2 })
	if err != nil {
		t.Fatal(err)
	}
	if flat.entries == 0 || flat.entries != tree.entries {
		t.Fatalf("check-list entries: flat %d, tree %d; want equal and nonzero", flat.entries, tree.entries)
	}
	if len(flat.races) == 0 {
		t.Fatal("synthetic workload found no races; the identity gate proves nothing")
	}
	if !reflect.DeepEqual(flat.races, tree.races) {
		t.Errorf("races differ:\nflat: %v\ntree: %v", flat.races, tree.races)
	}
	if !reflect.DeepEqual(flat.det, tree.det) {
		t.Errorf("detector state differs:\nflat: %+v\ntree: %+v", flat.det, tree.det)
	}
	if len(flat.waits) == 0 || len(flat.waits) != len(tree.waits) {
		t.Fatalf("barrier wait samples: flat %d, tree %d", len(flat.waits), len(tree.waits))
	}
}

// TestTreeCompareSmoke runs the CI smoke cell — N=16, arity 2 — through
// the full TreeCompare path, which includes the byte-identity gate, and
// checks the table renders.
func TestTreeCompareSmoke(t *testing.T) {
	s := NewSuite(0.1, 4)
	rows, err := s.treeExperiment([]int{16}, 2).rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Procs != 16 || rows[0].Entries == 0 {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	if rows[0].CandP50 == 0 || rows[0].BaseP50 == 0 {
		t.Fatalf("zero-valued percentiles: %+v", rows[0])
	}

	var buf bytes.Buffer
	if err := s.TreeCompareTable(&buf, []int{16}, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "combining-tree barrier") || !strings.Contains(out, "16") {
		t.Errorf("table output missing expected content:\n%s", out)
	}
}

// TestRunConfigBarrierTree: the harness-level gate mirrors the DSM's.
func TestRunConfigBarrierTree(t *testing.T) {
	bad := RunConfig{App: "TSP", Procs: 2, DSM: dsm.Config{BarrierTree: 1}}
	if err := ValidateRunConfig(bad); err == nil {
		t.Error("BarrierTree=1 accepted")
	}
	bad.BarrierTree = -3
	if err := ValidateRunConfig(bad); err == nil {
		t.Error("BarrierTree=-3 accepted")
	}
	good := RunConfig{App: "TSP", Procs: 2, DSM: dsm.Config{BarrierTree: 2}}
	if err := ValidateRunConfig(good); err != nil {
		t.Errorf("BarrierTree=2 rejected: %v", err)
	}
}

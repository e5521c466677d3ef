package gofront_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	_ "lrcrace/internal/apps/kv" // registers the KV and Sessions workloads
	"lrcrace/internal/gofront"
	"lrcrace/internal/telemetry"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/detector_pins.json from the current detector")

// detectorPin is everything a detecting run reports about its check work,
// recorded from a reference detector: the full race list (as a digest, so
// a change in which representative race.DedupByAddr keeps shows even when
// the racy address set does not move), Stats, and the KGoCheck event args
// summed over the run. The trace digest and virtual time pin the schedule
// itself: which goroutine ran at every step, not only how many steps.
type detectorPin struct {
	Races       int           `json:"races"`
	RacesSHA256 string        `json:"races_sha256"`
	TraceSHA256 string        `json:"trace_sha256"`
	VirtualNS   int64         `json:"virtual_ns"`
	Stats       gofront.Stats `json:"stats"`
	GoCheck     goCheckSums   `json:"go_check"`
}

// goCheckSums sums the KGoCheck args: pairs examined, bitmaps compared,
// reports found.
type goCheckSums struct {
	Events  int64 `json:"events"`
	Pairs   int64 `json:"pairs"`
	Bitmaps int64 `json:"bitmaps"`
	Found   int64 `json:"found"`
}

func pinOf(res *gofront.Result, sums goCheckSums) detectorPin {
	h := sha256.New()
	for _, r := range res.Races {
		fmt.Fprintf(h, "%d %d %d %d %d:%d:%d %d:%d:%d\n", r.Addr, r.Page, r.Word, r.Epoch,
			r.A.Interval.Proc, r.A.Interval.Index, r.A.Kind,
			r.B.Interval.Proc, r.B.Interval.Index, r.B.Kind)
	}
	th := sha256.New()
	for _, e := range res.Trace() {
		fmt.Fprintf(th, "%d %d %d %d %d %d\n", e.Op, e.G, e.Obj, e.Seq, e.Seq2, e.Addr)
	}
	return detectorPin{
		Races:       len(res.Races),
		RacesSHA256: hex.EncodeToString(h.Sum(nil)),
		TraceSHA256: hex.EncodeToString(th.Sum(nil)),
		VirtualNS:   res.VirtualNS,
		Stats:       res.Stats,
		GoCheck:     sums,
	}
}

// recordChecks returns a recorder that sums every KGoCheck event into sums.
func recordChecks(sums *goCheckSums) *telemetry.Recorder {
	return telemetry.New(telemetry.Config{Procs: 16, Cap: 16, Observer: func(e telemetry.Event) {
		if e.Kind == telemetry.KGoCheck {
			sums.Events++
			sums.Pairs += e.A
			sums.Bitmaps += e.B
			sums.Found += e.C
		}
	}})
}

// TestDetectorMatchesPinnedReference holds the close-time detector to the
// output of the map-backed reference it replaced, run by run: the KV and
// Sessions workloads (racy and clean, four seeds each) and 50 generated
// programs.
func TestDetectorMatchesPinnedReference(t *testing.T) {
	got := map[string]detectorPin{}
	for _, w := range []string{"KV", "Sessions"} {
		for _, racy := range []bool{true, false} {
			for seed := int64(1); seed <= 4; seed++ {
				var sums goCheckSums
				res, err := gofront.RunWorkload(w, gofront.WorkloadConfig{
					Clients: 8, Ops: 120, HotKeySkew: 0.5, Racy: racy, Seed: seed,
					Detect: true, Recorder: recordChecks(&sums),
				})
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("%s/racy=%v/seed=%d", w, racy, seed)] = pinOf(res, sums)
			}
		}
	}
	for seed := int64(0); seed < 50; seed++ {
		var sums goCheckSums
		res := gofront.RunRandomProgram(seed, recordChecks(&sums))
		got[fmt.Sprintf("random/seed=%d", seed)] = pinOf(res, sums)
	}

	path := filepath.Join("testdata", "detector_pins.json")
	if *updatePins {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]detectorPin{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: pinned but not run", name)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: drifted from the pinned reference:\n got %+v\nwant %+v", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d runs, %d pinned; run with -update-pins after adding one", len(got), len(want))
	}
}

// TestConcurrentProgramsShareNothing: two workloads run at the same time
// report exactly what the same two report run one after the other. Each
// goroutine's interval.Builder keeps the records, footprints and bitmaps
// the horizon GC hands back for its own later closes; a free list shared
// between programs would hand one program's recycled bitmap to the other
// while it is still read, and the race lists, Stats or traces would differ.
// CI runs it under -race, repeated.
func TestConcurrentProgramsShareNothing(t *testing.T) {
	cfgs := []struct {
		name string
		cfg  gofront.WorkloadConfig
	}{
		{"KV", gofront.WorkloadConfig{Clients: 6, Ops: 60, HotKeySkew: 0.5, Racy: true, Seed: 11, Detect: true}},
		{"Sessions", gofront.WorkloadConfig{Clients: 6, Ops: 40, HotKeySkew: 0.5, Racy: true, Seed: 12, Detect: true}},
	}
	run := func(i int) *gofront.Result {
		res, err := gofront.RunWorkload(cfgs[i].name, cfgs[i].cfg)
		if err != nil {
			t.Error(err)
		}
		return res
	}
	var seq [2]*gofront.Result
	for i := range seq {
		seq[i] = run(i)
	}
	for round := 0; round < 3; round++ {
		var par [2]*gofront.Result
		done := make(chan int)
		for i := range par {
			go func() {
				par[i] = run(i)
				done <- i
			}()
		}
		<-done
		<-done
		for i, res := range par {
			want := seq[i]
			if res == nil || want == nil {
				t.Fatalf("%s: no result", cfgs[i].name)
			}
			if !reflect.DeepEqual(res.Races, want.Races) || res.Stats != want.Stats ||
				res.VirtualNS != want.VirtualNS || !reflect.DeepEqual(res.Trace(), want.Trace()) {
				t.Fatalf("round %d, %s run beside another program: %d races, %+v; run alone: %d races, %+v",
					round, cfgs[i].name, len(res.Races), res.Stats, len(want.Races), want.Stats)
			}
		}
	}
	if len(seq[0].Races) == 0 || seq[0].Stats.RecordsGCed == 0 || seq[1].Stats.RecordsGCed == 0 {
		t.Fatalf("the programs must race and retire records: %+v / %+v", seq[0].Stats, seq[1].Stats)
	}
}

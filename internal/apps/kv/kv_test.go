package kv

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lrcrace/internal/gofront"
)

func run(t testing.TB, name string, cfg gofront.WorkloadConfig) *gofront.Result {
	if cfg.Detect == false {
		cfg.Detect = true
	}
	res, err := gofront.RunWorkload(name, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Deadlocked {
		t.Fatalf("%s: workload deadlocked", name)
	}
	return res
}

// render formats the deduplicated race set with symbolic names — the
// byte-identical artifact the determinism contract is stated over.
func render(res *gofront.Result) string {
	var b strings.Builder
	for _, a := range res.RacyAddrs {
		sym, _ := res.SymbolAt(a)
		fmt.Fprintf(&b, "%s@%#x\n", sym, a)
	}
	for _, r := range res.Races {
		fmt.Fprintf(&b, "%v\n", r)
	}
	return b.String()
}

func TestWorkloadsRegistered(t *testing.T) {
	for _, name := range []string{"KV", "Sessions"} {
		if !gofront.IsWorkload(name) {
			t.Fatalf("workload %q not registered (have %v)", name, gofront.Workloads())
		}
	}
}

// TestKVCleanHasNoRaces: the lock discipline of the non-racy variant is
// airtight across seeds, clients, and skew.
func TestKVCleanHasNoRaces(t *testing.T) {
	for _, name := range []string{"KV", "Sessions"} {
		for seed := int64(0); seed < 6; seed++ {
			res := run(t, name, gofront.WorkloadConfig{Seed: seed, Detect: true, HotKeySkew: 0.5})
			if len(res.RacyAddrs) != 0 {
				t.Fatalf("%s seed %d: clean variant raced: %s", name, seed, render(res))
			}
		}
	}
}

// TestKVRacyFindsHotKeyRace: the planted lock-free fast path is caught, and
// only on the hot keys it covers.
func TestKVRacyFindsHotKeyRace(t *testing.T) {
	for _, name := range []string{"KV", "Sessions"} {
		found := false
		for seed := int64(0); seed < 6; seed++ {
			res := run(t, name, gofront.WorkloadConfig{Seed: seed, Detect: true, Racy: true, HotKeySkew: 0.7})
			for _, a := range res.RacyAddrs {
				sym, ok := res.SymbolAt(a)
				if !ok {
					t.Fatalf("%s seed %d: race at unmapped addr %#x", name, seed, a)
				}
				found = true
				// Only the hot head of the keyspace has a lock-free path.
				var idx int
				if n, _ := fmt.Sscanf(sym, "kv.val[%d]", &idx); n != 1 {
					if n, _ := fmt.Sscanf(sym, "sessions[%d]", &idx); n != 1 {
						t.Fatalf("%s seed %d: race on unexpected symbol %s", name, seed, sym)
					}
				}
				if idx >= kvHotKeys {
					t.Fatalf("%s seed %d: race on non-hot key %s", name, seed, sym)
				}
			}
		}
		if !found {
			t.Fatalf("%s: racy variant never raced across seeds", name)
		}
	}
}

// TestKVCrossValidates: on both variants the interval detector agrees with
// the per-access happens-before replay of the identical trace.
func TestKVCrossValidates(t *testing.T) {
	for _, name := range []string{"KV", "Sessions"} {
		for _, racy := range []bool{false, true} {
			for seed := int64(0); seed < 4; seed++ {
				res := run(t, name, gofront.WorkloadConfig{
					Seed: seed, Detect: true, Racy: racy, HotKeySkew: 0.6,
				})
				want := gofront.RacyAddrsHB(res.Trace(), res.NumGs)
				if !reflect.DeepEqual(res.RacyAddrs, want) {
					t.Fatalf("%s racy=%v seed %d: gofront %v != hbdet %v",
						name, racy, seed, res.RacyAddrs, want)
				}
			}
		}
	}
}

// TestKVDeterministic: same seed, byte-identical rendered race set and
// identical trace/stats — the contract sweep cells and the service rely on.
func TestKVDeterministic(t *testing.T) {
	for _, name := range []string{"KV", "Sessions"} {
		for _, racy := range []bool{false, true} {
			cfg := gofront.WorkloadConfig{Seed: 7, Detect: true, Racy: racy, HotKeySkew: 0.4}
			r1 := run(t, name, cfg)
			r2 := run(t, name, cfg)
			if s1, s2 := render(r1), render(r2); s1 != s2 {
				t.Fatalf("%s racy=%v: rendered race set not deterministic:\n%s\nvs\n%s", name, racy, s1, s2)
			}
			if !reflect.DeepEqual(r1.Trace(), r2.Trace()) {
				t.Fatalf("%s racy=%v: trace not deterministic", name, racy)
			}
			if r1.Stats != r2.Stats {
				t.Fatalf("%s racy=%v: stats not deterministic", name, racy)
			}
		}
	}
}

// TestKVScalesOps: the Ops/Scale knobs actually change the workload size.
func TestKVScalesOps(t *testing.T) {
	small := run(t, "KV", gofront.WorkloadConfig{Seed: 1, Detect: true, Ops: 8})
	big := run(t, "KV", gofront.WorkloadConfig{Seed: 1, Detect: true, Ops: 64})
	if small.Stats.Loads+small.Stats.Stores >= big.Stats.Loads+big.Stats.Stores {
		t.Fatalf("ops knob had no effect: small=%+v big=%+v", small.Stats, big.Stats)
	}
}

func TestKVClientBudget(t *testing.T) {
	if _, err := RunKV(gofront.WorkloadConfig{Clients: 40, Scale: 1}); err == nil {
		t.Fatal("expected error for client count beyond goroutine budget")
	}
	if _, err := RunSessions(gofront.WorkloadConfig{Clients: 40, Scale: 1}); err == nil {
		t.Fatal("expected error for client count beyond goroutine budget")
	}
}

func benchKV(b *testing.B, racy bool) {
	for i := 0; i < b.N; i++ {
		res, err := gofront.RunWorkload("KV", gofront.WorkloadConfig{
			Seed: int64(i), Detect: true, Racy: racy, HotKeySkew: 0.5, Ops: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		if racy == (len(res.RacyAddrs) == 0) && res.Stats.ConcurrentPairs > 0 {
			// Not an assertion-grade check (race manifestation is
			// seed-dependent), just keep the result live.
			_ = res
		}
	}
}

func BenchmarkKVClean(b *testing.B) { benchKV(b, false) }
func BenchmarkKVRacy(b *testing.B)  { benchKV(b, true) }

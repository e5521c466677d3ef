// Command gofront is the Go-native-frontend quickstart: the same
// interval/vector-clock detector that watches the DSM's pages here watches
// Go concurrency primitives instead (goroutines, channels, mutexes, wait
// groups — see docs/GOFRONT.md).
//
// It runs the concurrent KV workload twice with identical traffic: once
// with the planted racy fast path (hot-key reads skip the shard lock) and
// once fixed (every access shard-locked). The detector reports the hot-key
// races in the first run and certifies the second clean.
package main

import (
	"fmt"
	"log"

	"lrcrace"
)

// findRaces runs the KV workload and returns its distinct data races,
// named. The racy flag plants the workload's lock-skipping read path;
// everything else — seed, traffic mix, hot-key skew — is identical.
func findRaces(racy bool) []string {
	res, err := lrcrace.RunExperiment(lrcrace.ExperimentConfig{
		App:        "KV", // a go-frontend workload: the app picks the engine
		Procs:      4,    // client goroutines
		Detect:     true,
		Racy:       racy,
		HotKeySkew: 0.7,
		Seed:       3,
	})
	if err != nil {
		log.Fatal(err)
	}
	var out []string
	for _, r := range lrcrace.DedupRaces(res.Races) {
		name := fmt.Sprintf("0x%x", uint64(r.Addr))
		if sym, ok := res.GoFront.SymbolAt(r.Addr); ok {
			name = sym
		}
		kind := "read-write"
		if r.WriteWrite() {
			kind = "write-write"
		}
		out = append(out, fmt.Sprintf("%s race on %s", kind, name))
	}
	return out
}

func main() {
	races := findRaces(true)
	fmt.Printf("racy KV (hot-key reads skip the shard lock): %d distinct race(s)\n", len(races))
	for _, r := range races {
		fmt.Printf("  %s\n", r)
	}

	if clean := findRaces(false); len(clean) == 0 {
		fmt.Println("fixed KV (every access shard-locked): no data races detected")
	} else {
		fmt.Printf("fixed KV unexpectedly raced: %v\n", clean)
	}
}

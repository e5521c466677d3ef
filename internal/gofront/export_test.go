package gofront

import (
	"testing"

	"lrcrace/internal/telemetry"
)

// RunRandomProgram runs the seeded random program genProg(seed) with
// detection on, recording into rec — the randomized family, exported to
// the external pinned-reference test (which must import the KV workloads,
// and they import this package).
func RunRandomProgram(seed int64, rec *telemetry.Recorder) *Result {
	return genProg(seed).runWith(Config{Seed: seed, Detect: true, Recorder: rec})
}

// RecordTraceOff runs the rest of t as a non-test binary would: with the
// trace not recorded. t's cleanup restores recording.
func RecordTraceOff(t testing.TB) {
	old := recordTrace
	recordTrace = false
	t.Cleanup(func() { recordTrace = old })
}

// LeastAllocs is testing.AllocsPerRun(runs, f) measured three times, the
// least kept. The runtime counts every goroutine's allocations, so one
// straggling from an earlier test can land in a measurement; an allocation
// in f shows in all three.
func LeastAllocs(runs int, f func()) float64 {
	least := testing.AllocsPerRun(runs, f)
	for range 2 {
		least = min(least, testing.AllocsPerRun(runs, f))
	}
	return least
}

package dsm

import (
	"fmt"
	"slices"

	"lrcrace/internal/castore"
	"lrcrace/internal/telemetry"
)

// CorruptMode selects how a CorruptionPlan damages stored checkpoints.
type CorruptMode int

const (
	// CorruptChunk flips a bit in the stored copy of each victim chunk, so
	// resolving it fails its integrity check (castore.ErrCorrupt).
	CorruptChunk CorruptMode = iota
	// DeleteChunk drops each victim chunk's stored bytes entirely, so
	// resolving it fails with castore.ErrMissing.
	DeleteChunk
)

func (m CorruptMode) String() string {
	switch m {
	case CorruptChunk:
		return "corrupt-chunk"
	case DeleteChunk:
		return "delete-chunk"
	default:
		return fmt.Sprintf("CorruptMode(%d)", int(m))
	}
}

// CorruptionPlan schedules deterministic damage to stored checkpoint
// state — the storage-fault sibling of CrashPlan (process death) and
// simnet.FaultPlan (wire faults). Once every process has deposited its
// checkpoint for Epoch, the plan fires exactly once per System: Count
// chunks of that epoch's closure, chosen by a seeded PRNG over the sorted
// key list, are tampered with or deleted.
//
// Corruption is silent until a rollback tries to use the damaged epoch;
// then manifest decoding detects the broken closure (the store checks each
// chunk against its key) and recovery falls back to the newest older epoch that still
// verifies. Re-execution across the damaged barrier re-deposits the true
// chunk contents, healing the store.
type CorruptionPlan struct {
	// Epoch is the barrier epoch whose deposited checkpoints are attacked.
	// Must be ≥ 1: epoch 0 is the initial state and has no checkpoints.
	Epoch int32
	// Mode is the kind of damage.
	Mode CorruptMode
	// Count is how many distinct chunks are attacked; 0 → 1. Capped at the
	// epoch's closure size.
	Count int
	// Seed drives the deterministic chunk choice.
	Seed uint64
}

// Validate checks the plan.
func (c *CorruptionPlan) Validate() error {
	if c.Epoch < 1 {
		return fmt.Errorf("corruption plan: epoch %d (want ≥ 1; epoch 0 has no checkpoints)", c.Epoch)
	}
	if c.Count < 0 {
		return fmt.Errorf("corruption plan: Count = %d", c.Count)
	}
	switch c.Mode {
	case CorruptChunk, DeleteChunk:
	default:
		return fmt.Errorf("corruption plan: unknown mode %d", int(c.Mode))
	}
	return nil
}

// maybeCorrupt fires the system's corruption plan once all processes have
// deposited checkpoints for epoch. Called from checkpoint after each
// deposit; the System's corruptFired makes it inject once per run, even
// when a rollback re-deposits the epoch.
func (s *System) maybeCorrupt(epoch int32) {
	cp := s.cfg.Corruption
	if cp == nil || epoch != cp.Epoch || s.corruptFired {
		return
	}
	n := s.cfg.NumProcs
	if !s.ckpts.haveAll(epoch, n) {
		return
	}
	s.corruptFired = true
	hit := s.ckpts.corruptEpoch(epoch, n, cp)
	s.tel.Emit(0, telemetry.KCkptCorrupt, 0, int64(epoch), int64(hit), int64(cp.Mode))
}

// corruptEpoch applies the plan's damage to epoch's chunk closure: the
// union of every process's chunk references at that epoch, deduplicated
// and sorted so the seeded choice is deterministic. Returns the number of
// chunks attacked.
func (cs *CheckpointStore) corruptEpoch(epoch int32, n int, cp *CorruptionPlan) int {
	seen := make(map[castore.Key]bool)
	var keys []castore.Key
	for p := 0; p < n; p++ {
		for _, k := range cs.byProc[p][epoch].keys {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	slices.Sort(keys)
	count := min(max(cp.Count, 1), len(keys))
	next := splitmix64(cp.Seed)
	picked := make(map[int]bool, count)
	for range count {
		i := int(next() % uint64(len(keys)))
		for picked[i] {
			i = (i + 1) % len(keys)
		}
		picked[i] = true
		if cp.Mode == DeleteChunk {
			cs.chunks.Delete(keys[i])
		} else {
			cs.chunks.Tamper(keys[i])
		}
	}
	return count
}

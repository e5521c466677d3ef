package harness

import (
	"fmt"
	"strings"
	"time"

	"lrcrace/internal/dsm"
	"lrcrace/internal/mem"
)

// The chaos applications are epoch-structured workloads (dsm.RunEpochs)
// rather than whole-program benchmarks, which is what makes them
// recoverable: a crash plan rolls them back to the latest verified
// checkpoint line and re-executes. They mirror the shapes of the paper's
// applications — ChaosTSP is the branch-and-bound bound variable updated
// under a lock but read unsynchronized for pruning; ChaosMW drives the
// multi-writer diff protocol with false sharing, a write-write overlap,
// and a lock-ordered counter — scaled down to a few pages so a sweep cell
// completes in milliseconds.

// ChaosAppNames lists the epoch-structured, crash-recoverable apps.
var ChaosAppNames = []string{"ChaosTSP", "ChaosMW"}

// CrashModes are the recognized RunConfig.CrashMode values.
var CrashModes = []string{"none", "single", "double", "recovery"}

// CorruptModes are the recognized RunConfig.CorruptMode values.
var CorruptModes = []string{"none", "chunk", "delete"}

// The chaos apps' fixed shape: a few small pages, four barrier epochs.
const (
	chaosEpochs      int32 = 4 // ≥ 2: a crash needs a checkpoint line to roll back to
	chaosSharedBytes       = 16 * 1024
	chaosPageSize          = 1024
)

// IsChaosApp reports whether name is an epoch-structured chaos app.
func IsChaosApp(name string) bool {
	for _, a := range ChaosAppNames {
		if a == name {
			return true
		}
	}
	return false
}

func chaosAppNames() string { return strings.Join(ChaosAppNames, ", ") }

// chaosMode normalizes an empty mode to "none".
func chaosMode(m string) string {
	if m == "" {
		return "none"
	}
	return m
}

// chaosPlans derives the deterministic fault plans one chaos run injects
// from its seed. Crash epochs are clamped to ≥1 so at least one checkpoint
// line exists to roll back to (the epoch-0 full-restart path has its own
// dedicated tests), and the corruption plan targets exactly the crash
// epoch's line: every process deposits that line on entering the epoch,
// before the victim dies mid-epoch, so the corruption always lands before
// rollback planning reads the store.
func chaosPlans(cfg RunConfig) ([]*dsm.CrashPlan, *dsm.CorruptionPlan, error) {
	n, epochs, seed := cfg.Procs, chaosEpochs, uint64(cfg.Seed)
	crashMode, corruptMode := chaosMode(cfg.CrashMode), chaosMode(cfg.CorruptMode)
	if crashMode == "none" {
		if corruptMode != "none" {
			return nil, nil, fmt.Errorf("harness: CorruptMode %q requires a CrashMode: without a crash nothing ever reads the corrupted checkpoints back", corruptMode)
		}
		return nil, nil, nil
	}
	first := dsm.RandomCrashPlan(seed, n, epochs)
	if first == nil {
		return nil, nil, fmt.Errorf("harness: %d procs leave no valid crash victim", n)
	}
	if first.Epoch == 0 {
		first.Epoch = 1
	}
	crashes := []*dsm.CrashPlan{first}

	switch crashMode {
	case "single":
	case "double":
		if n < 3 {
			return nil, nil, fmt.Errorf("harness: CrashMode double needs at least 3 procs for two distinct victims, got %d", n)
		}
		second := dsm.RandomCrashPlan(seed+0xd0b51e, n, epochs)
		second.Epoch = first.Epoch // two victims in the same epoch
		if second.Victim == first.Victim {
			second.Victim = 1 + second.Victim%(n-1)
		}
		crashes = append(crashes, second)
	case "recovery":
		second := dsm.RandomCrashPlan(seed+0x5ec0fd, n, epochs)
		second.Epoch = first.Epoch // strikes the re-executed epoch
		second.DuringRecovery = true
		crashes = append(crashes, second)
	default:
		return nil, nil, fmt.Errorf("harness: unknown CrashMode %q (want %s)", crashMode, strings.Join(CrashModes, "|"))
	}

	var corrupt *dsm.CorruptionPlan
	switch corruptMode {
	case "none":
	case "chunk":
		corrupt = &dsm.CorruptionPlan{Epoch: first.Epoch, Mode: dsm.CorruptChunk, Seed: seed ^ 0xc0ffee}
	case "delete":
		corrupt = &dsm.CorruptionPlan{Epoch: first.Epoch, Mode: dsm.DeleteChunk, Seed: seed ^ 0xc0ffee}
	default:
		return nil, nil, fmt.Errorf("harness: unknown CorruptMode %q (want %s)", corruptMode, strings.Join(CorruptModes, "|"))
	}
	return crashes, corrupt, nil
}

// chaosSetup allocates one chaos app's shared state and returns its epoch
// body factory plus the post-run verification (final memory must match the
// crash-free execution: rollback may neither lose nor double work).
func chaosSetup(name string, s *dsm.System, n int, epochs int32) (func() dsm.EpochFunc, func() error, error) {
	switch name {
	case "ChaosTSP":
		best, err := s.AllocWords("best", 1)
		if err != nil {
			return nil, nil, err
		}
		tours, err := s.AllocWords("tours", n)
		if err != nil {
			return nil, nil, err
		}
		factory := func() dsm.EpochFunc {
			return func(p *dsm.Proc, e int32) {
				p.Write(tours+mem.Addr(p.ID()*8), uint64(int(e)*10+p.ID()))
				p.Lock(0)
				p.Write(best, p.Read(best)+1)
				p.Unlock(0)
				if p.ID() != 0 {
					p.Read(best) // unsynchronized pruning read: the TSP race
				}
			}
		}
		verify := func() error {
			if got, want := s.SnapshotWord(best), uint64(n)*uint64(epochs); got != want {
				return fmt.Errorf("ChaosTSP: best = %d, want %d", got, want)
			}
			for p := 0; p < n; p++ {
				if got, want := s.SnapshotWord(tours+mem.Addr(p*8)), uint64(int(epochs-1)*10+p); got != want {
					return fmt.Errorf("ChaosTSP: tour slot %d = %d, want %d", p, got, want)
				}
			}
			return nil
		}
		return factory, verify, nil

	case "ChaosMW":
		words, err := s.AllocWords("words", 16)
		if err != nil {
			return nil, nil, err
		}
		counter, err := s.AllocWords("counter", 1)
		if err != nil {
			return nil, nil, err
		}
		factory := func() dsm.EpochFunc {
			return func(p *dsm.Proc, e int32) {
				p.Write(words+mem.Addr(p.ID()*8), uint64(e)+1)
				if p.ID() == 1 || p.ID() == 2 {
					p.Write(words+mem.Addr(10*8), uint64(p.ID())) // write-write overlap
				}
				p.Lock(1)
				p.Write(counter, p.Read(counter)+1)
				p.Unlock(1)
			}
		}
		verify := func() error {
			if got, want := s.SnapshotWord(counter), uint64(n)*uint64(epochs); got != want {
				return fmt.Errorf("ChaosMW: counter = %d, want %d", got, want)
			}
			for p := 0; p < n; p++ {
				if got := s.SnapshotWord(words + mem.Addr(p*8)); got != uint64(epochs) {
					return fmt.Errorf("ChaosMW: slot %d = %d, want %d", p, got, epochs)
				}
			}
			return nil
		}
		return factory, verify, nil
	}
	return nil, nil, fmt.Errorf("harness: unknown chaos app %q", name)
}

// runChaos executes one chaos configuration on sys (built from dsmConfig,
// which derived the seed-driven fault plans): run the epoch-structured body
// under RunEpochs (which converges via repeated rollback), and verify final
// shared memory against the crash-free execution.
func runChaos(cfg RunConfig, sys *dsm.System) (*Result, error) {
	factory, verify, err := chaosSetup(cfg.App, sys, cfg.Procs, chaosEpochs)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := sys.RunEpochs(chaosEpochs, factory); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	if err := verify(); err != nil {
		return nil, fmt.Errorf("harness: %s failed verification: %w", cfg.App, err)
	}
	return newResult(cfg, nil, sys, wall), nil
}

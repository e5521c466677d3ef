package harness

import (
	"errors"
	"fmt"
	"strings"

	"lrcrace/internal/apps"
	"lrcrace/internal/dsm"
	"lrcrace/internal/gofront"
)

// ErrUnknownApp marks the rejection of a DSM-frontend application name
// that no registry knows (test with errors.Is). The sweep keeps such cells
// so a typo surfaces as failed cells instead of a silently smaller grid.
var ErrUnknownApp = errors.New("unknown application")

// ValidateRunConfig checks a configuration without running it: every
// rejection Run (or the dsm.Config it builds) would raise mid-setup is
// raised here, up front. It is the one owner of the run-configuration
// rules: the sweep's grid expansion keeps exactly the candidates it
// accepts, the detection service refuses with a 400 carrying its message
// whatever it rejects — a request that fails here can never run, so no
// pool slot is burnt on a doomed System — and Run goes through the same
// code, so none of them can disagree about what is runnable. The DSM's own
// combination rules (sharded check needs detection, tree arity, lossy wire
// needs the reliable sublayer, crash plans need checkpoints, ...) are not
// restated: the dsm.Config the run would be built from is asked.
func ValidateRunConfig(cfg RunConfig) error {
	_, _, err := prepare(cfg)
	return err
}

// prepare validates cfg and, for the DSM frontend, returns what Run builds
// the System from: the application (nil for the chaos apps) and the
// dsm.Config, recorder not yet attached.
func prepare(cfg RunConfig) (apps.App, dsm.Config, error) {
	fail := func(format string, args ...interface{}) (apps.App, dsm.Config, error) {
		return nil, dsm.Config{}, fmt.Errorf("harness: "+format, args...)
	}
	if cfg.App == "" {
		return fail("no application named")
	}
	if cfg.Procs < 1 {
		return fail("Procs = %d (want >= 1)", cfg.Procs)
	}
	if cfg.Scale < 0 {
		return fail("negative Scale %g", cfg.Scale)
	}
	if !KnownFrontend(cfg.Frontend) {
		return fail("unknown frontend %q (have %s)", cfg.Frontend, strings.Join(Frontends, ", "))
	}
	if IsGoFrontend(cfg.Frontend) {
		return nil, dsm.Config{}, validateGoFront(cfg)
	}
	if cfg.HotKeySkew != 0 || cfg.Racy || cfg.OpsPerClient != 0 {
		return fail("HotKeySkew, Racy, and OpsPerClient parameterize go-frontend workloads; set Frontend to \"go\"")
	}
	var app apps.App
	shared := chaosSharedBytes
	if !IsChaosApp(cfg.App) {
		if chaosMode(cfg.CrashMode) != "none" || chaosMode(cfg.CorruptMode) != "none" {
			return fail("%s is a whole-program benchmark and cannot recover; crash/corruption modes need a chaos app (%s)", cfg.App, chaosAppNames())
		}
		if gofront.IsWorkload(cfg.App) {
			return fail("%s is a go-frontend workload; set Frontend to \"go\"", cfg.App)
		}
		var err error
		if app, err = apps.New(cfg.App, cfg.Scale); err != nil {
			return fail("%w %q (have %s and chaos apps %s)",
				ErrUnknownApp, cfg.App, strings.Join(apps.Names(), ", "), chaosAppNames())
		}
		shared = app.SharedBytes()
	}
	dc, err := dsmConfig(cfg, shared)
	if err != nil {
		return nil, dsm.Config{}, err
	}
	if err := dc.Validate(); err != nil {
		return nil, dsm.Config{}, err
	}
	return app, dc, nil
}

// validateGoFront gates the go-frontend configurations: the app must be a
// registered gofront workload, the workload knobs must be in range, and
// every DSM-only mechanism must be off — the gofront engine has no pages,
// wire, barrier tree, or checkpoint store to configure.
func validateGoFront(cfg RunConfig) error {
	if !gofront.IsWorkload(cfg.App) {
		return fmt.Errorf("harness: unknown go-frontend workload %q (have %s)",
			cfg.App, strings.Join(gofront.Workloads(), ", "))
	}
	if cfg.HotKeySkew < 0 || cfg.HotKeySkew >= 1 {
		return fmt.Errorf("harness: HotKeySkew = %g (want [0,1))", cfg.HotKeySkew)
	}
	if cfg.OpsPerClient < 0 {
		return fmt.Errorf("harness: negative OpsPerClient %d", cfg.OpsPerClient)
	}
	switch {
	case cfg.Protocol != dsm.SingleWriter:
		return fmt.Errorf("harness: the go frontend has no coherence protocol; leave Protocol at its default")
	case cfg.ShardedCheck:
		return fmt.Errorf("harness: ShardedCheck is a DSM barrier mechanism; the go frontend checks at sync points")
	case cfg.BarrierTree != 0:
		return fmt.Errorf("harness: BarrierTree is a DSM barrier mechanism; the go frontend has no barriers")
	case cfg.NoCheckpoint:
		return fmt.Errorf("harness: the go frontend has no checkpoint layer to disable")
	case cfg.Tracer != nil:
		return fmt.Errorf("harness: Tracer observes DSM runs; the go frontend keeps its own trace (Result.GoFront)")
	case cfg.FirstOnly, cfg.WritesFromDiffs:
		return fmt.Errorf("harness: FirstOnly/WritesFromDiffs tune the DSM detector, not the go frontend")
	case cfg.Faults != nil, cfg.Reliable:
		return fmt.Errorf("harness: the go frontend has no wire to fault or retransmit")
	case chaosMode(cfg.CrashMode) != "none", chaosMode(cfg.CorruptMode) != "none":
		return fmt.Errorf("harness: crash/corruption modes need a DSM chaos app, not a go-frontend workload")
	}
	return nil
}

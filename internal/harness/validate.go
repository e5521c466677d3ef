package harness

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"lrcrace/internal/apps"
	"lrcrace/internal/dsm"
	"lrcrace/internal/gofront"
)

// ErrUnknownApp marks the rejection of an application name that no
// registry knows (test with errors.Is). The sweep keeps such cells
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

// prepare validates cfg and, for a DSM app, returns what Run builds
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
	if gofront.IsWorkload(cfg.App) {
		return nil, dsm.Config{}, validateGoFront(cfg)
	}
	if cfg.HotKeySkew != 0 || cfg.Racy || cfg.OpsPerClient != 0 {
		return fail("HotKeySkew, Racy, and OpsPerClient parameterize go-frontend workloads (%s), not %s",
			strings.Join(gofront.Workloads(), ", "), cfg.App)
	}
	derived := slices.DeleteFunc(setFields(&cfg.DSM), func(f string) bool { return !slices.Contains(derivedFields, f) })
	if len(derived) > 0 {
		return fail("derived field DSM.%s set: the harness fills it in from Procs, App, Detect, the chaos modes and Recorder", strings.Join(derived, ", DSM."))
	}
	var app apps.App
	shared := chaosSharedBytes
	if !IsChaosApp(cfg.App) {
		if chaosMode(cfg.CrashMode) != "none" || chaosMode(cfg.CorruptMode) != "none" {
			return fail("%s is a whole-program benchmark and cannot recover; crash/corruption modes need a chaos app (%s)", cfg.App, chaosAppNames())
		}
		var err error
		if app, err = apps.New(cfg.App, cfg.Scale); err != nil {
			return fail("%w %q (have %s, chaos apps %s and go-frontend workloads %s)",
				ErrUnknownApp, cfg.App, strings.Join(apps.Names(), ", "), chaosAppNames(),
				strings.Join(gofront.Workloads(), ", "))
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

// derivedFields are the dsm.Config fields dsmConfig and Run fill in, which a
// RunConfig's DSM must leave zero.
var derivedFields = []string{"NumProcs", "SharedSize", "PageSize", "Detect", "Crashes", "Corruption", "Recorder"}

// setFields names the fields of c that are not at their zero value.
func setFields(c *dsm.Config) []string {
	v := reflect.ValueOf(c).Elem()
	var set []string
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsZero() {
			set = append(set, v.Type().Field(i).Name)
		}
	}
	return set
}

// validateGoFront gates the go-frontend configurations (cfg.App is a
// registered gofront workload): the workload knobs must be in range, and
// the run takes no DSM settings — the gofront engine has no pages, wire,
// barrier tree, or checkpoint store to configure, and keeps its own trace
// (Result.GoFront) instead of a Tracer.
func validateGoFront(cfg RunConfig) error {
	if cfg.HotKeySkew < 0 || cfg.HotKeySkew >= 1 {
		return fmt.Errorf("harness: HotKeySkew = %g (want [0,1))", cfg.HotKeySkew)
	}
	if cfg.OpsPerClient < 0 {
		return fmt.Errorf("harness: negative OpsPerClient %d", cfg.OpsPerClient)
	}
	if set := setFields(&cfg.DSM); len(set) > 0 {
		return fmt.Errorf("harness: a go-frontend run takes no DSM settings; DSM.%s set", strings.Join(set, ", DSM."))
	}
	if chaosMode(cfg.CrashMode) != "none" || chaosMode(cfg.CorruptMode) != "none" {
		return fmt.Errorf("harness: crash/corruption modes need a DSM chaos app, not a go-frontend workload")
	}
	return nil
}

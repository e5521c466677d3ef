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
	"lrcrace/internal/simnet"
)

// ErrUnknownApp marks the rejection of an application name that no
// registry knows (test with errors.Is). The sweep keeps such cells
// so a typo surfaces as failed cells instead of a silently smaller grid.
var ErrUnknownApp = errors.New("unknown application")

// ErrBadValue marks the rejection of a value that no run of any app can
// take, such as a negative scale or tree arity 1 (test with errors.Is). A
// sweep plan holding one fails, where a combination that one app cannot
// run only skips its cell.
var ErrBadValue = errors.New("bad value")

// ValidateRunConfig checks a configuration without running it: every
// rejection Run (or the dsm.Config it builds) would raise mid-setup is
// raised here, up front. It is the one owner of the run-configuration
// rules: the sweep's grid expansion keeps exactly the candidates it
// accepts, the detection service refuses with a 400 carrying its message
// whatever it rejects — a request that fails here can never run, so no
// pool slot is burnt on a doomed System — and Run goes through the same
// code, so none of them can disagree about what is runnable. The rules
// about single values come first, for every app (ErrBadValue). The DSM's
// own combination rules (sharded check needs detection, lossy wire needs
// the reliable sublayer, crash plans need checkpoints, ...) are not
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
	if err := checkValues(cfg); err != nil {
		return nil, dsm.Config{}, err
	}
	if cfg.App == "" {
		return fail("no application named")
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
		if ChaoticMode(cfg.CrashMode) || ChaoticMode(cfg.CorruptMode) {
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

// checkValues applies the rules about single values, which hold for every
// app; each failure wraps ErrBadValue.
func checkValues(cfg RunConfig) error {
	err := dsm.CheckBarrierTree(cfg.DSM.BarrierTree)
	switch {
	case cfg.Procs < 1:
		err = fmt.Errorf("Procs = %d (want >= 1)", cfg.Procs)
	case cfg.Scale < 0:
		err = fmt.Errorf("negative Scale %g", cfg.Scale)
	case cfg.HotKeySkew < 0 || cfg.HotKeySkew >= 1:
		err = fmt.Errorf("HotKeySkew = %g (want [0,1))", cfg.HotKeySkew)
	case cfg.OpsPerClient < 0:
		err = fmt.Errorf("negative OpsPerClient %d", cfg.OpsPerClient)
	case cfg.CrashMode != "" && !slices.Contains(CrashModes, cfg.CrashMode):
		err = fmt.Errorf("unknown CrashMode %q (want %s)", cfg.CrashMode, strings.Join(CrashModes, "|"))
	case cfg.CorruptMode != "" && !slices.Contains(CorruptModes, cfg.CorruptMode):
		err = fmt.Errorf("unknown CorruptMode %q (want %s)", cfg.CorruptMode, strings.Join(CorruptModes, "|"))
	}
	if err != nil {
		return fmt.Errorf("harness: %w: %w", ErrBadValue, err)
	}
	return CheckFaults(cfg.DSM.Faults)
}

// CheckFaults is checkValues' rule for a wire-fault plan (nil is none),
// for a caller that holds a plan it may not pass on (the sweep drops its
// fault template from go-frontend cells).
func CheckFaults(f *simnet.FaultPlan) error {
	if f != nil {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("harness: %w: %w", ErrBadValue, err)
		}
	}
	return nil
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
// registered gofront workload, its values already checked): the run takes
// no DSM settings — the gofront engine has no pages, wire,
// barrier tree, or checkpoint store to configure, and keeps its own trace
// (Result.GoFront) instead of a Tracer.
func validateGoFront(cfg RunConfig) error {
	if set := setFields(&cfg.DSM); len(set) > 0 {
		return fmt.Errorf("harness: a go-frontend run takes no DSM settings; DSM.%s set", strings.Join(set, ", DSM."))
	}
	if ChaoticMode(cfg.CrashMode) || ChaoticMode(cfg.CorruptMode) {
		return fmt.Errorf("harness: crash/corruption modes need a DSM chaos app, not a go-frontend workload")
	}
	return nil
}

package harness

import (
	"reflect"
	"strings"
	"testing"

	"lrcrace/internal/dsm"
	"lrcrace/internal/simnet"
	"lrcrace/internal/telemetry"
)

func TestGoFrontRun(t *testing.T) {
	res, err := Run(RunConfig{
		App: "KV", Procs: 4, Detect: true,
		Racy: true, HotKeySkew: 0.7, Seed: 3,
		Telemetry: &telemetry.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GoFront == nil {
		t.Fatal("GoFront result missing")
	}
	if res.Sys != nil {
		t.Fatal("go-frontend run built a DSM system")
	}
	if len(res.Races) == 0 {
		t.Fatal("racy KV run found no races")
	}
	vars := res.RacyVariables()
	if len(vars) == 0 || !strings.HasPrefix(vars[0], "kv.val[") {
		t.Fatalf("RacyVariables = %v, want kv.val[...] names", vars)
	}

	snap := res.MetricsSnapshot()
	for _, series := range []string{
		"gofront_intervals_total", "gofront_sync_ops_total",
		"gofront_pairs_examined_total", "races_found_total",
	} {
		if snap.CounterTotal(series) == 0 {
			b, _ := snap.MarshalJSON()
			t.Fatalf("metrics missing %s:\n%s", series, b)
		}
	}
	// The scoped recorder saw the run's sync/check events too.
	kinds := map[telemetry.Kind]bool{}
	for _, e := range res.Telemetry.Events() {
		kinds[e.Kind] = true
	}
	for _, k := range []telemetry.Kind{telemetry.KGoSync, telemetry.KGoCheck, telemetry.KRaceFound} {
		if !kinds[k] {
			t.Fatalf("recorder missing %v events (have %v)", k, kinds)
		}
	}
}

func TestGoFrontCleanRun(t *testing.T) {
	res, err := Run(RunConfig{App: "Sessions", Procs: 3, Detect: true, HotKeySkew: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 0 {
		t.Fatalf("clean Sessions run raced: %v", res.RacyVariables())
	}
}

func TestGoFrontValidation(t *testing.T) {
	ok := RunConfig{App: "KV", Procs: 2, Detect: true}
	if err := ValidateRunConfig(ok); err != nil {
		t.Fatalf("valid go-frontend config rejected: %v", err)
	}
	bad := []RunConfig{
		{App: "KV", Procs: 2, HotKeySkew: 1.5},
		{App: "KV", Procs: 2, OpsPerClient: -1},
		{App: "KV", Procs: 2, DSM: dsm.Config{Protocol: dsm.MultiWriter}},
		{App: "KV", Procs: 2, Detect: true, DSM: dsm.Config{ShardedCheck: true}},
		{App: "KV", Procs: 2, DSM: dsm.Config{BarrierTree: 2}},
		{App: "KV", Procs: 2, DSM: dsm.Config{Faults: &simnet.FaultPlan{Drop: 0.1}}},
		{App: "KV", Procs: 2, CrashMode: "single"},
		{App: "FFT", Procs: 2, Racy: true},
		{App: "FFT", Procs: 2, HotKeySkew: 0.5},
		{App: "FFT", Procs: 2, OpsPerClient: 10},
	}
	for i, cfg := range bad {
		if err := ValidateRunConfig(cfg); err == nil {
			t.Fatalf("case %d (%+v): invalid config accepted", i, cfg)
		}
	}

	// A go run takes no DSM settings: each dsm.Config field, set alone, is
	// rejected by name.
	typ := reflect.TypeOf(dsm.Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		cfg := ok
		reflect.ValueOf(&cfg.DSM).Elem().Field(i).Set(nonZero(f.Type))
		if err := ValidateRunConfig(cfg); err == nil || !strings.Contains(err.Error(), "DSM."+f.Name+" ") {
			t.Errorf("go run with DSM.%s set: err = %v, want a rejection naming the field", f.Name, err)
		}
	}
	two := ok
	two.DSM = dsm.Config{FirstOnly: true, NoCheckpoint: true}
	if err := ValidateRunConfig(two); err == nil || !strings.Contains(err.Error(), "DSM.FirstOnly, DSM.NoCheckpoint set") {
		t.Errorf("go run with two DSM fields set: err = %v, want both named", err)
	}

	// A DSM run rejects each field the harness derives, set in its DSM.
	for _, name := range []string{"NumProcs", "SharedSize", "PageSize", "Detect", "Crashes", "Corruption", "Recorder"} {
		f, _ := typ.FieldByName(name)
		for _, app := range []string{"FFT", "ChaosTSP"} {
			cfg := RunConfig{App: app, Procs: 4, Detect: true}
			reflect.ValueOf(&cfg.DSM).Elem().FieldByIndex(f.Index).Set(nonZero(f.Type))
			if err := ValidateRunConfig(cfg); err == nil || !strings.Contains(err.Error(), "DSM."+name+" ") {
				t.Errorf("%s run with derived DSM.%s set: err = %v, want a rejection naming the field", app, name, err)
			}
		}
	}
}

// anyHook implements every interface-typed dsm.Config field; its methods
// are never called.
type anyHook struct {
	dsm.Tracer
}

// nonZero returns a non-zero value of t, for the dsm.Config field kinds. An
// integer is 2, a value every integer field can take (arity 1 is a bad
// BarrierTree, which the value rules refuse before the field is named).
func nonZero(t reflect.Type) reflect.Value {
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(2)
	case reflect.Pointer:
		v.Set(reflect.New(t.Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(t, 1, 1))
	case reflect.Struct:
		v.Field(0).Set(nonZero(t.Field(0).Type))
	case reflect.Interface:
		v.Set(reflect.ValueOf(anyHook{}))
	default:
		panic("nonZero: unhandled kind " + t.Kind().String())
	}
	return v
}

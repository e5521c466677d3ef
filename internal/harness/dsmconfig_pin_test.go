package harness_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"lrcrace/internal/dsm"
	"lrcrace/internal/harness"
	"lrcrace/internal/mem"
	"lrcrace/internal/simnet"
	"lrcrace/internal/sweep"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/dsm_config_pins.txt from the current prepare")

// pinTracer is a Tracer that observes nothing; the pins record only its
// presence.
type pinTracer struct{}

func (pinTracer) Read(int, mem.Addr)       {}
func (pinTracer) Write(int, mem.Addr)      {}
func (pinTracer) Acquire(int, int)         {}
func (pinTracer) Release(int, int)         {}
func (pinTracer) BarrierArrive(int, int32) {}
func (pinTracer) BarrierDepart(int, int32) {}

// pinInputs are the run configurations whose dsm.Config is pinned: every
// cell of sweep's pinned grids (through Request.RunConfig, so the sweep's
// mapping is pinned too) and a hand-written list covering what no grid
// reaches.
func pinInputs(t *testing.T) []struct {
	label string
	cfg   harness.RunConfig
} {
	var in []struct {
		label string
		cfg   harness.RunConfig
	}
	add := func(label string, cfg harness.RunConfig) {
		in = append(in, struct {
			label string
			cfg   harness.RunConfig
		}{label, cfg})
	}
	b, err := os.ReadFile(filepath.Join("..", "sweep", "testdata", "pinned_plans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var plans map[string]*sweep.Plan
	if err := json.Unmarshal(b, &plans); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(plans))
	for name := range plans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cells, err := plans[name].Expand()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range cells {
			cfg, err := c.RunConfig()
			if err != nil {
				t.Fatalf("%s: %v", c.ID, err)
			}
			add(name+"/"+c.ID, cfg)
		}
	}

	add("racefind-water", harness.RunConfig{
		App: "Water", Scale: 0.25, Procs: 4, Detect: true,
		DSM: dsm.Config{
			Protocol: dsm.MultiWriter, WritesFromDiffs: true, FirstOnly: true,
			Tracer: pinTracer{},
		},
	})
	add("lossy-tsp", harness.RunConfig{
		App: "TSP", Scale: 0.25, Procs: 4, Detect: true,
		DSM: dsm.Config{
			Faults: &simnet.FaultPlan{Seed: 3, Drop: 0.05, Dup: 0.02, Reorder: 0.1, JitterNS: 5000},
		},
	})
	for _, app := range harness.ChaosAppNames {
		for _, crash := range harness.CrashModes {
			for _, corrupt := range harness.CorruptModes {
				for _, seed := range []int64{0, 1, 7} {
					add(fmt.Sprintf("%s-%s-%s-seed%d", app, crash, corrupt, seed), harness.RunConfig{
						App: app, Procs: 4, Detect: true, CrashMode: crash, CorruptMode: corrupt,
						Seed: seed,
					})
				}
			}
		}
	}
	add("fft-no-checkpoint", harness.RunConfig{App: "FFT", Scale: 0.25, Procs: 4, Detect: true, DSM: dsm.Config{NoCheckpoint: true}})
	return in
}

// TestDSMConfigPinned holds the dsm.Config the harness builds for each
// input to testdata/dsm_config_pins.txt, so a change to how a run
// configuration reaches the DSM shows up as a diff of that file. Rewrite
// it (-update-pins) only for a change meant to alter the mapping.
func TestDSMConfigPinned(t *testing.T) {
	var sb strings.Builder
	for _, in := range pinInputs(t) {
		cfg := in.cfg
		if cfg.Scale == 0 {
			cfg.Scale = 1 // as Run defaults it
		}
		_, dc, err := harness.Prepare(cfg)
		if err != nil {
			fmt.Fprintf(&sb, "%s: error: %v\n", in.label, err)
			continue
		}
		fmt.Fprintf(&sb, "%s: %s\n", in.label, pinString(reflect.ValueOf(dc), ""))
	}
	got := sb.String()
	path := filepath.Join("testdata", "dsm_config_pins.txt")
	if *updatePins {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(b)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d drifted from the pins:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, %d pinned", len(gl), len(wl))
}

// pinString spells v for the pins: struct fields by name, zero ones
// omitted; pointers dereferenced; hooks (the Recorder, functions,
// interfaces) as presence only, since their contents are not
// configuration.
func pinString(v reflect.Value, name string) string {
	switch {
	case name == "Recorder", v.Kind() == reflect.Interface, v.Kind() == reflect.Func:
		return "set"
	case v.Kind() == reflect.Pointer:
		return pinString(v.Elem(), name)
	case v.Kind() == reflect.Slice:
		elems := make([]string, v.Len())
		for i := range elems {
			elems[i] = pinString(v.Index(i), "")
		}
		return "[" + strings.Join(elems, " ") + "]"
	case v.Kind() == reflect.Struct && v.Type() != reflect.TypeOf(time.Duration(0)):
		var fields []string
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.IsExported() && !v.Field(i).IsZero() {
				fields = append(fields, f.Name+":"+pinString(v.Field(i), f.Name))
			}
		}
		return "{" + strings.Join(fields, " ") + "}"
	}
	return fmt.Sprint(v.Interface())
}

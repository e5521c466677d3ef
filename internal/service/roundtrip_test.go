package service

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"lrcrace/internal/harness"
	"lrcrace/internal/sweep"
)

// overTheWire sends a request through its JSON wire format and resolves
// what arrives the way Service.Submit does.
func overTheWire(t *testing.T, r RunRequest) (sweep.Cell, harness.RunConfig) {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back RunRequest
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	c, cfg, err := back.Defaulted().Resolve()
	if err != nil {
		t.Fatalf("%s rejected: %v", b, err)
	}
	return c, cfg
}

// TestRequestCellRoundTrip walks RunRequest field by field: with each one
// set away from its default (in a request that is valid with it set), the
// request must resolve to the same cell and run configuration after a JSON
// round trip as before it. A field without a JSON name, or tagged "-", is
// what a remote cell would silently drop — as BarrierTree once was, which
// a node ran flat — and fails here, as does a new field without an entry
// below.
func TestRequestCellRoundTrip(t *testing.T) {
	goReq := func(r *RunRequest) { r.App, r.Frontend = "KV", "go" }
	chaos := func(r *RunRequest) { r.App, r.CrashMode = "ChaosTSP", "single" }
	set := map[string]func(r *RunRequest){
		"Tenant":      func(r *RunRequest) { r.Tenant = "team-a" },
		"App":         func(r *RunRequest) { r.App = "SOR" },
		"Scale":       func(r *RunRequest) { r.Scale = 0.5 },
		"Procs":       func(r *RunRequest) { r.Procs = 2 },
		"Protocol":    func(r *RunRequest) { r.Protocol = "mw" },
		"Detect":      func(r *RunRequest) { r.Detect = boolPtr(false) },
		"Sharded":     func(r *RunRequest) { r.Sharded = true },
		"BarrierTree": func(r *RunRequest) { r.BarrierTree = 2 },
		"Checkpoint":  func(r *RunRequest) { r.Checkpoint = boolPtr(false) },
		"CrashMode":   chaos,
		"CorruptMode": func(r *RunRequest) { chaos(r); r.CorruptMode = "chunk" },
		"Seed":        func(r *RunRequest) { chaos(r); r.Seed = 3 },
		"Frontend":    goReq,
		"HotSkew":     func(r *RunRequest) { goReq(r); r.HotSkew = 0.5 },
		"Racy":        func(r *RunRequest) { goReq(r); r.Racy = true },
		"Faults":      func(r *RunRequest) { r.Faults = &sweep.FaultAxis{Drop: 0.05, JitterUS: 10} },
	}
	base := RunRequest{App: "FFT"}
	baseCell, baseCfg, err := base.Defaulted().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name == "" || name == "-" {
			t.Errorf("RunRequest.%s has no JSON name, so a remote cell would not carry it", f.Name)
		}
		mutate, ok := set[f.Name]
		if !ok {
			t.Errorf("RunRequest has a field %s this test does not set: add it here", f.Name)
			continue
		}
		r := base
		mutate(&r)
		want, wantCfg, err := r.Defaulted().Resolve()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if reflect.DeepEqual(want, baseCell) && reflect.DeepEqual(wantCfg, baseCfg) {
			t.Fatalf("mutation for %s resolves like the base request", f.Name)
		}
		got, gotCfg := overTheWire(t, r)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cell changed in the JSON round trip:\nsent %+v\n got %+v", f.Name, want, got)
		}
		if !reflect.DeepEqual(gotCfg, wantCfg) {
			t.Errorf("%s: run configuration changed in the JSON round trip:\nsent %+v\n got %+v", f.Name, wantCfg, gotCfg)
		}
	}
}

// TestRequestCellRoundTripGrid: every cell of plans that reach all the
// axes at once — both frontends, chaos apps, tree and sharded barriers, a
// wire-fault template, a seed axis kept alive by chaos cells only — arrives
// at a node as the same cell (same ID, so the sweep files the result where
// it belongs) with the run configuration a local sweep would execute.
func TestRequestCellRoundTripGrid(t *testing.T) {
	// An empty crash mode is "none": the grid must not differ.
	blankCrash := chaosSeedPlan()
	blankCrash.CrashModes = []string{"", "single"}
	for _, tc := range []struct {
		plan               *sweep.Plan
		minCells, maxCells int
	}{{&sweep.Plan{
		Apps:         []string{"Water", "ChaosMW", "KV"},
		Frontends:    []string{"dsm", "go"},
		Scales:       []float64{0.25, 1},
		Procs:        []int{3, 4},
		Protocols:    []string{"sw", "mw"},
		Detect:       []bool{true, false},
		Sharded:      []bool{false, true},
		BarrierTrees: []int{0, 2},
		Checkpoint:   []bool{true, false},
		CrashModes:   []string{"none", "double"},
		CorruptModes: []string{"none", "delete"},
		HotSkews:     []float64{0, 0.8},
		Racy:         []bool{false, true},
		Seeds:        []int64{0, 7},
		Faults:       &sweep.FaultAxis{Drop: 0.02, JitterUS: 5},
	}, 100, math.MaxInt}, {chaosSeedPlan(), 6, 6}, {blankCrash, 6, 6}} {
		cells, err := tc.plan.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(cells); n < tc.minCells || n > tc.maxCells {
			t.Fatalf("grid expanded to %d cells, want %d to %d", n, tc.minCells, tc.maxCells)
		}
		for _, c := range cells {
			wantCfg, err := c.RunConfig()
			if err != nil {
				t.Fatal(err)
			}
			got, gotCfg := overTheWire(t, c.Request)
			if !reflect.DeepEqual(got, c) {
				t.Errorf("cell changed in the round trip:\nsent %+v\n got %+v", c, got)
			}
			if !reflect.DeepEqual(gotCfg, wantCfg) {
				t.Errorf("%s: run configuration changed in the round trip:\nlocal  %+v\nremote %+v", c.ID, wantCfg, gotCfg)
			}
		}
	}
}

// TestRequestDocExampleBytes pins the wire format through the request body
// docs/SERVICE.md shows: it decodes with no unknown field and re-encodes to
// these bytes (field names, order, and what omitempty drops).
func TestRequestDocExampleBytes(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("(?s)## Sessions and admission control.*?```json\\n(.*?)```").FindSubmatch(doc)
	if m == nil {
		t.Fatal("no example request body in docs/SERVICE.md")
	}
	dec := json.NewDecoder(strings.NewReader(string(m[1])))
	dec.DisallowUnknownFields()
	var r RunRequest
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("docs/SERVICE.md example: %v", err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"tenant":"ci","app":"Water","scale":1,"procs":4,"protocol":"sw","detect":true,"checkpoint":true,` +
		`"crash_mode":"none","corrupt_mode":"none","frontend":"dsm","faults":{"drop":0.05,"jitter_us":10}}`
	if string(b) != want {
		t.Errorf("example body encodes to\n%s\nwant\n%s", b, want)
	}
}

// TestRequestCellIDs pins the request schema's other fixed point: sparse
// bodies — what a hand-written client sends — take the sweep's defaults
// and seed collapse, so existing clients keep naming the cells they always
// named (the IDs below were recorded when the service still expanded a
// one-point sweep.Plan).
func TestRequestCellIDs(t *testing.T) {
	lossy := &sweep.FaultAxis{Drop: 0.05}
	for _, tc := range []struct {
		req  RunRequest
		want string
	}{
		{RunRequest{App: "FFT"}, "FFT-s1-p4-sw-d1-sh0-ck1-seed0"},
		{RunRequest{App: "FFT", Seed: 7}, "FFT-s1-p4-sw-d1-sh0-ck1-seed0"},
		{RunRequest{App: "FFT", Frontend: "dsm", Protocol: "sw", CrashMode: "none", CorruptMode: "none"}, "FFT-s1-p4-sw-d1-sh0-ck1-seed0"},
		{RunRequest{App: "TSP", Scale: 0.25, Procs: 2, Protocol: "mw", Detect: boolPtr(false)}, "TSP-s0.25-p2-mw-d0-sh0-ck1-seed0"},
		{RunRequest{App: "Water", Sharded: true}, "Water-s1-p4-sw-d1-sh1-ck1-seed0"},
		{RunRequest{App: "Water", BarrierTree: 2}, "Water-s1-p4-sw-d1-sh0-ck1-bt2-seed0"},
		{RunRequest{App: "FFT", Checkpoint: boolPtr(false)}, "FFT-s1-p4-sw-d1-sh0-ck0-seed0"},
		{RunRequest{App: "TSP", Faults: lossy, Seed: 2}, "TSP-s1-p4-sw-d1-sh0-ck1-seed2"},
		{RunRequest{App: "TSP", Faults: &sweep.FaultAxis{JitterUS: 5}, Seed: 2}, "TSP-s1-p4-sw-d1-sh0-ck1-seed2"},
		{RunRequest{App: "ChaosTSP", CrashMode: "single", CorruptMode: "chunk", Seed: 3}, "ChaosTSP-s1-p4-sw-d1-sh0-ck1-crsingle-cxchunk-seed3"},
		{RunRequest{App: "ChaosMW", Seed: 3}, "ChaosMW-s1-p4-sw-d1-sh0-ck1-seed0"},
		{RunRequest{App: "ChaosMW", Procs: 3, CrashMode: "double", Seed: 3, Protocol: "mw"}, "ChaosMW-s1-p3-mw-d1-sh0-ck1-crdouble-seed3"},
		{RunRequest{App: "KV", Frontend: "go", Seed: 5, HotSkew: 0.8, Racy: true}, "KV-s1-p4-sw-d1-sh0-ck1-go-hk0.8-racy-seed5"},
		{RunRequest{App: "Sessions", Frontend: "go", Detect: boolPtr(false), Procs: 2, Scale: 0.5}, "Sessions-s0.5-p2-sw-d0-sh0-ck1-go-seed0"},
		// The wire template describes the simulated network; a go-frontend
		// session has none and has always ignored it.
		{RunRequest{App: "KV", Frontend: "go", Faults: lossy, Protocol: "sw", CrashMode: "none"}, "KV-s1-p4-sw-d1-sh0-ck1-go-seed0"},
	} {
		c, _, err := tc.req.Defaulted().Resolve()
		if err != nil {
			t.Errorf("%+v: %v", tc.req, err)
			continue
		}
		if c.ID != tc.want {
			t.Errorf("%+v names cell %s, want %s", tc.req, c.ID, tc.want)
		}
	}
}

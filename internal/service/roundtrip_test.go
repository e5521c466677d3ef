package service

import (
	"reflect"
	"testing"

	"lrcrace/internal/harness"
	"lrcrace/internal/sweep"
)

// roundTrip sends one cell through the remote-dispatch bridge and back:
// the request built for it must resolve to the same cell (same ID, so
// Sweep.Record files the result where it belongs) and to the run
// configuration a local sweep would have executed.
func roundTrip(t *testing.T, plan *sweep.Plan, c sweep.Cell) {
	t.Helper()
	wantCfg, err := plan.RunConfig(c)
	if err != nil {
		t.Fatalf("%s: %v", c.ID, err)
	}
	if err := harness.ValidateRunConfig(wantCfg); err != nil {
		t.Fatalf("%s is not a runnable cell: %v", c.ID, err)
	}
	req := RequestFor(c, plan.Faults, plan.RealMsgDelayUS)
	got, gotCfg, err := req.Cell()
	if err != nil {
		t.Fatalf("%s: request %+v rejected: %v", c.ID, req, err)
	}
	if got != c {
		t.Errorf("cell changed in the round trip:\nsent %+v\n got %+v", c, got)
	}
	if !reflect.DeepEqual(gotCfg, wantCfg) {
		t.Errorf("%s: run configuration changed in the round trip:\nlocal  %+v\nremote %+v", c.ID, wantCfg, gotCfg)
	}
}

// TestRequestCellRoundTrip walks sweep.Cell field by field: with each one
// set away from the base cell's value (in a cell that is valid with it
// set), RequestFor then Cell() must be the identity. A field RunRequest
// does not carry fails here — as BarrierTree did, which a node silently
// ran flat — and so does a field added to Cell without an entry below.
func TestRequestCellRoundTrip(t *testing.T) {
	base := sweep.Cell{App: "FFT", Scale: 1, Procs: 4, Protocol: "sw",
		Checkpoint: true, CrashMode: "none", CorruptMode: "none"}
	goCell := func(c *sweep.Cell) { c.App, c.Frontend = "KV", "go" }
	chaos := func(c *sweep.Cell) { c.App, c.CrashMode = "ChaosTSP", "single" }
	set := map[string]func(c *sweep.Cell){
		"App":         func(c *sweep.Cell) { c.App = "SOR" },
		"Scale":       func(c *sweep.Cell) { c.Scale = 0.5 },
		"Procs":       func(c *sweep.Cell) { c.Procs = 2 },
		"Protocol":    func(c *sweep.Cell) { c.Protocol = "mw" },
		"Detect":      func(c *sweep.Cell) { c.Detect = true },
		"Sharded":     func(c *sweep.Cell) { c.Detect, c.Sharded = true, true },
		"BarrierTree": func(c *sweep.Cell) { c.BarrierTree = 2 },
		"Checkpoint":  func(c *sweep.Cell) { c.Checkpoint = false },
		"CrashMode":   chaos,
		"CorruptMode": func(c *sweep.Cell) { chaos(c); c.CorruptMode = "chunk" },
		"Frontend":    goCell,
		"HotSkew":     func(c *sweep.Cell) { goCell(c); c.HotSkew = 0.5 },
		"Racy":        func(c *sweep.Cell) { goCell(c); c.Racy = true },
		"Seed":        func(c *sweep.Cell) { goCell(c); c.Seed = 3 },
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if name == "ID" {
			continue // derived from the others
		}
		mutate, ok := set[name]
		if !ok {
			t.Errorf("sweep.Cell has a field %s this test does not set: add it here, to RunRequest, RequestFor and Cell()", name)
			continue
		}
		c := base
		mutate(&c)
		if reflect.DeepEqual(reflect.ValueOf(c).Field(i).Interface(), reflect.ValueOf(base).Field(i).Interface()) {
			t.Fatalf("mutation for %s leaves the field at its base value", name)
		}
		c.ID = sweep.CellID(c)
		roundTrip(t, &sweep.Plan{}, c)
	}
}

// TestRequestCellRoundTripGrid: every cell of a plan that reaches all the
// axes at once — both frontends, chaos apps, tree and sharded barriers, a
// wire-fault template — survives the round trip unchanged.
func TestRequestCellRoundTripGrid(t *testing.T) {
	plan := &sweep.Plan{
		Apps:           []string{"Water", "ChaosMW", "KV"},
		Frontends:      []string{"dsm", "go"},
		Scales:         []float64{0.25, 1},
		Procs:          []int{3, 4},
		Protocols:      []string{"sw", "mw"},
		Detect:         []bool{true, false},
		Sharded:        []bool{false, true},
		BarrierTrees:   []int{0, 2},
		Checkpoint:     []bool{true, false},
		CrashModes:     []string{"none", "double"},
		CorruptModes:   []string{"none", "delete"},
		HotSkews:       []float64{0, 0.8},
		Racy:           []bool{false, true},
		Seeds:          []int64{0, 7},
		Faults:         &sweep.FaultAxis{Drop: 0.02, JitterUS: 5},
		RealMsgDelayUS: 15,
	}
	cells, err := plan.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) < 100 {
		t.Fatalf("grid expanded to only %d cells", len(cells))
	}
	for _, c := range cells {
		roundTrip(t, plan, c)
	}
}

// TestRequestCellIDs pins the request schema's other fixed point: sparse
// bodies — what a hand-written client sends — take the sweep's defaults
// and seed collapse, so existing clients keep naming the cells they always
// named (the IDs below were recorded when Cell() still expanded a one-point
// sweep.Plan).
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
		{RunRequest{App: "TSP", Faults: lossy, Seed: 2, RealMsgDelayUS: 20}, "TSP-s1-p4-sw-d1-sh0-ck1-seed2"},
		{RunRequest{App: "TSP", Faults: &sweep.FaultAxis{JitterUS: 5}, Seed: 2}, "TSP-s1-p4-sw-d1-sh0-ck1-seed2"},
		{RunRequest{App: "ChaosTSP", CrashMode: "single", CorruptMode: "chunk", Seed: 3}, "ChaosTSP-s1-p4-sw-d1-sh0-ck1-crsingle-cxchunk-seed3"},
		{RunRequest{App: "ChaosMW", Seed: 3}, "ChaosMW-s1-p4-sw-d1-sh0-ck1-seed0"},
		{RunRequest{App: "ChaosMW", Procs: 3, CrashMode: "double", Seed: 3, Protocol: "mw"}, "ChaosMW-s1-p3-mw-d1-sh0-ck1-crdouble-seed3"},
		{RunRequest{App: "KV", Frontend: "go", Seed: 5, HotSkew: 0.8, Racy: true}, "KV-s1-p4-sw-d1-sh0-ck1-go-hk0.8-racy-seed5"},
		{RunRequest{App: "Sessions", Frontend: "go", Detect: boolPtr(false), Procs: 2, Scale: 0.5}, "Sessions-s0.5-p2-sw-d0-sh0-ck1-go-seed0"},
		// The wire template describes the simulated network; a go-frontend
		// session has none and has always ignored it.
		{RunRequest{App: "KV", Frontend: "go", Faults: lossy, RealMsgDelayUS: 10, Protocol: "sw", CrashMode: "none"}, "KV-s1-p4-sw-d1-sh0-ck1-go-seed0"},
	} {
		c, _, err := tc.req.Cell()
		if err != nil {
			t.Errorf("%+v: %v", tc.req, err)
			continue
		}
		if c.ID != tc.want {
			t.Errorf("%+v names cell %s, want %s", tc.req, c.ID, tc.want)
		}
	}
}

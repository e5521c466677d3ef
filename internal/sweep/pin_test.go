package sweep

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lrcrace/internal/harness"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/expand_pins.json from the current Expand")

// pinnedPlans are the grids whose expansion is a fixed point: the ordered
// cell-ID list and the fingerprint of each were recorded before Expand's
// hand-written skip rules were replaced by the validator, and an existing
// -dir sweep of any of them must still resume. Between them they reach
// every axis and every combination rule (dsm-grid's two seeds collapse:
// nothing consumes them). They live in testdata/pinned_plans.json because
// harness's TestDSMConfigPinned runs every cell of them too.
func pinnedPlans(t testing.TB) map[string]*Plan {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "pinned_plans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var plans map[string]*Plan
	if err := json.Unmarshal(b, &plans); err != nil {
		t.Fatal(err)
	}
	return plans
}

type expandPin struct {
	Fingerprint string   `json:"fingerprint"`
	Cells       []string `json:"cells"`
}

func TestExpandPinned(t *testing.T) {
	path := filepath.Join("testdata", "expand_pins.json")
	got := map[string]expandPin{}
	for name, p := range pinnedPlans(t) {
		cells, err := p.Expand()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ids := make([]string, len(cells))
		for i, c := range cells {
			ids[i] = c.ID
		}
		got[name] = expandPin{Fingerprint: p.Fingerprint(), Cells: ids}
	}
	if *updatePins {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]expandPin{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g := got[name]
		if g.Fingerprint != w.Fingerprint {
			t.Errorf("%s: fingerprint %s, pinned %s", name, g.Fingerprint, w.Fingerprint)
		}
		if !reflect.DeepEqual(g.Cells, w.Cells) {
			t.Errorf("%s: expansion drifted from the pinned list (%d cells, pinned %d):\n got %v\nwant %v",
				name, len(g.Cells), len(w.Cells), g.Cells, w.Cells)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d plans, %d pinned; run with -update-pins after adding one", len(got), len(want))
	}
}

// TestExpandKeepsWhatValidatorAccepts enumerates every candidate of the
// pinned grids on its own — the full cartesian product, in Expand's axis
// order — and checks that Expand kept exactly the candidates whose run
// configuration harness.ValidateRunConfig accepts. Expand has no
// combination rules of its own to drift from the validator's.
func TestExpandKeepsWhatValidatorAccepts(t *testing.T) {
	for name, p := range pinnedPlans(t) {
		cells, err := p.Expand()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A dsm candidate with a go-only knob set shares its ID with the
		// kept cell that has the knob clear, so a candidate is kept only
		// when the whole cell under its ID matches.
		kept := map[string]Cell{}
		for _, c := range cells {
			kept[c.ID] = c
		}
		d := defaults(p)
		fronts, hotSkews, racies := d.Frontends, d.HotSkews, d.Racy
		if len(fronts) == 0 {
			fronts = []string{"dsm"}
		}
		if len(hotSkews) == 0 {
			hotSkews = []float64{0}
		}
		if len(racies) == 0 {
			racies = []bool{false}
		}
		candidates := 0
		for _, app := range d.Apps {
			for _, front := range fronts {
				for _, sc := range d.Scales {
					for _, pc := range d.Procs {
						for _, proto := range d.Protocols {
							for _, det := range d.Detect {
								for _, sh := range d.Sharded {
									for _, bt := range d.BarrierTrees {
										for _, ck := range d.Checkpoint {
											for _, cr := range d.CrashModes {
												for _, cx := range d.CorruptModes {
													for _, hk := range hotSkews {
														for _, racy := range racies {
															for _, seed := range d.Seeds {
																r := Request{App: app, Scale: sc, Procs: pc, Protocol: proto,
																	Detect: &det, Sharded: sh, BarrierTree: bt, Checkpoint: &ck,
																	CrashMode: cr, CorruptMode: cx, HotSkew: hk, Racy: racy, Seed: seed,
																	Faults: p.Faults}
																if front == "go" {
																	r.Frontend = front
																}
																cfg, err := r.RunConfig()
																if err != nil {
																	t.Fatal(err)
																}
																candidates++
																k, ok := kept[CellID(r)]
																isKept := ok && reflect.DeepEqual(k.Request, r)
																verr := harness.ValidateRunConfig(cfg)
																if isKept != (verr == nil) {
																	t.Errorf("%s: candidate %+v kept=%v but validator says %v", name, r, isKept, verr)
																}
															}
														}
													}
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
		if candidates < len(cells) {
			t.Errorf("%s: enumerated %d candidates for %d cells", name, candidates, len(cells))
		}
	}
}

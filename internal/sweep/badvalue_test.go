package sweep

import (
	"errors"
	"testing"

	"lrcrace/internal/harness"
	"lrcrace/internal/simnet"
)

// TestValueRulesHoldForEveryApp: a value no run of any app can take is
// refused by the harness with harness.ErrBadValue whatever the app — a DSM
// benchmark, a chaos app, a gofront workload or a name no registry knows —
// and a one-app plan carrying it fails to expand. Among the rows are
// values the harness used to reach only for some engines (arity 1 and a
// bad fault template on a gofront workload, an unknown crash mode on a
// whole-program benchmark). A combination one app cannot run is no bad
// value: its cell is skipped and the plan expands.
func TestValueRulesHoldForEveryApp(t *testing.T) {
	rules := []struct {
		name string
		cfg  func(*harness.RunConfig) // nil: the rule has no RunConfig field
		plan func(*Plan)              // nil: the rule has no plan axis
	}{
		{"procs below one", func(c *harness.RunConfig) { c.Procs = -1 }, func(p *Plan) { p.Procs = []int{-1} }},
		{"negative scale", func(c *harness.RunConfig) { c.Scale = -1 }, func(p *Plan) { p.Scales = []float64{-1} }},
		{"hot-key skew of one", func(c *harness.RunConfig) { c.HotKeySkew = 1 }, func(p *Plan) { p.HotSkews = []float64{1} }},
		{"negative hot-key skew", func(c *harness.RunConfig) { c.HotKeySkew = -0.5 }, func(p *Plan) { p.HotSkews = []float64{-0.5} }},
		{"negative ops per client", func(c *harness.RunConfig) { c.OpsPerClient = -1 }, nil},
		{"unknown crash mode", func(c *harness.RunConfig) { c.CrashMode = "thrice" }, func(p *Plan) { p.CrashModes = []string{"thrice"} }},
		{"unknown corrupt mode", func(c *harness.RunConfig) { c.CorruptMode = "scribble" }, func(p *Plan) { p.CorruptModes = []string{"scribble"} }},
		{"tree arity one", func(c *harness.RunConfig) { c.DSM.BarrierTree = 1 }, func(p *Plan) { p.BarrierTrees = []int{1} }},
		{"negative tree arity", func(c *harness.RunConfig) { c.DSM.BarrierTree = -2 }, func(p *Plan) { p.BarrierTrees = []int{-2} }},
		{"drop above one", func(c *harness.RunConfig) { c.DSM.Faults = &simnet.FaultPlan{Drop: 1.5} },
			func(p *Plan) { p.Faults = &FaultAxis{Drop: 1.5} }},
		{"negative jitter", func(c *harness.RunConfig) { c.DSM.Faults = &simnet.FaultPlan{JitterNS: -1000} },
			func(p *Plan) { p.Faults = &FaultAxis{JitterUS: -1} }},
		{"unknown protocol", nil, func(p *Plan) { p.Protocols = []string{"bogus"} }},
	}
	for _, app := range []string{"SOR", "ChaosTSP", "KV", "Nope"} {
		for _, rule := range rules {
			if rule.cfg != nil {
				cfg := harness.RunConfig{App: app, Procs: 4, Detect: true}
				rule.cfg(&cfg)
				if err := harness.ValidateRunConfig(cfg); !errors.Is(err, harness.ErrBadValue) {
					t.Errorf("%s, %s: ValidateRunConfig = %v, want harness.ErrBadValue", app, rule.name, err)
				}
			}
			if rule.plan != nil {
				p := &Plan{Apps: []string{app}}
				rule.plan(p)
				if cells, err := p.Expand(); !errors.Is(err, harness.ErrBadValue) {
					t.Errorf("%s, %s: Expand = %d cells, %v; want harness.ErrBadValue", app, rule.name, len(cells), err)
				}
			}
		}
	}

	for _, p := range []*Plan{
		{Apps: []string{"SOR"}, Detect: []bool{false}, Sharded: []bool{true}},
		{Apps: []string{"SOR"}, CrashModes: []string{"single"}},
		{Apps: []string{"KV"}, BarrierTrees: []int{2}},
	} {
		cells, err := p.Expand()
		if err != nil || len(cells) != 0 {
			t.Errorf("%+v: Expand = %d cells, %v; want the one cell skipped", *p, len(cells), err)
		}
	}
}

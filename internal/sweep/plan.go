// Package sweep is the multi-run orchestrator: it expands a parameter grid
// over the harness's run configurations into cells, executes them on a
// bounded worker pool — one DSM System and one handle-scoped telemetry
// recorder per cell, so concurrent cells cannot cross-talk — and
// aggregates the results into a deterministic machine-readable document.
//
// A sweep is resumable: with a checkpoint directory, every finished cell
// is persisted as it completes, and restarting the same plan over the same
// directory re-executes only the missing cells. A live HTTP endpoint
// (Handler) exposes Prometheus-format metrics, JSON progress, and
// on-demand flight-recorder dumps while the grid runs; see docs/SWEEP.md.
package sweep

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"lrcrace/internal/dsm"
	"lrcrace/internal/gofront"
	"lrcrace/internal/harness"
	"lrcrace/internal/simnet"
)

// Plan is the parameter grid of one sweep: the cartesian product of every
// axis, in the field order below, defines the cell list. Empty axes take
// the singleton defaults noted on each field, so the zero Plan plus one
// app is a valid 1-cell sweep.
//
// Combinations that cannot run are skipped at expansion rather than run to
// failure. Expand has no combination rules of its own: it keeps exactly the
// grid points whose run configuration harness.ValidateRunConfig accepts.
type Plan struct {
	// Apps are the applications to run (required). Each app fixes its
	// engine: the registered gofront workloads run on the go frontend,
	// every other app on the simulated DSM, so one plan can mix both.
	Apps []string `json:"apps"`
	// Scales are problem-scale multipliers; empty → [1].
	Scales []float64 `json:"scales,omitempty"`
	// Procs are DSM process counts; empty → [4].
	Procs []int `json:"procs,omitempty"`
	// Protocols are coherence protocols, "sw" or "mw"; empty → ["sw"].
	Protocols []string `json:"protocols,omitempty"`
	// Detect are race-detection settings; empty → [true].
	Detect []bool `json:"detect,omitempty"`
	// Sharded are sharded-check settings; empty → [false]. A true value is
	// skipped for cells whose Detect is false (the DSM rejects it).
	Sharded []bool `json:"sharded,omitempty"`
	// BarrierTrees are combining-tree barrier arities
	// (dsm.Config.BarrierTree): 0 is the flat barrier, k ≥ 2 a
	// k-ary combining tree; empty → [0].
	BarrierTrees []int `json:"barrier_trees,omitempty"`
	// Checkpoint are barrier-epoch-checkpointing settings; empty → [true]
	// (checkpointing is on by default; a false value measures the DSM
	// without the recovery layer).
	Checkpoint []bool `json:"checkpoint,omitempty"`
	// CrashModes inject deterministic process crashes into the chaos
	// applications (harness.ChaosAppNames): "none", "single", "double",
	// "recovery"; empty → ["none"]. Non-"none" modes are skipped for
	// whole-program benchmark apps (they cannot recover) and for cells with
	// checkpointing off (nothing to roll back to).
	CrashModes []string `json:"crash_modes,omitempty"`
	// CorruptModes attack stored checkpoint chunks before rollback:
	// "none", "chunk", "delete"; empty → ["none"]. Non-"none" modes apply
	// only to cells that also crash.
	CorruptModes []string `json:"corrupt_modes,omitempty"`
	// Seeds drive the fault, crash, and corruption plans' PRNGs — and the
	// go frontend's scheduler and traffic PRNGs; empty → [0]. With no
	// Faults, no non-"none" chaos mode, and no gofront workload among the
	// Apps the axis is forced to its default: seed-varied deterministic
	// runs would be identical cells under different names.
	Seeds []int64 `json:"seeds,omitempty"`
	// HotSkews are go-frontend hot-key-skew probabilities in [0,1);
	// empty → [0]. Non-default values apply only to gofront workloads.
	HotSkews []float64 `json:"hot_skews,omitempty"`
	// Racy toggles the go-frontend workloads' planted racy fast path;
	// empty → [false]. A true value applies only to gofront workloads.
	Racy []bool `json:"racy,omitempty"`
	// Faults, when non-nil, applies this fault template to every cell,
	// with the cell's seed. Lossy templates imply the reliable sublayer.
	Faults *FaultAxis `json:"faults,omitempty"`
}

// FaultAxis is the wire-fault template a plan applies across the grid
// (simnet.FaultPlan minus the seed, which is the plan's Seeds axis).
type FaultAxis struct {
	Drop     float64 `json:"drop,omitempty"`
	Dup      float64 `json:"dup,omitempty"`
	Reorder  float64 `json:"reorder,omitempty"`
	JitterUS int64   `json:"jitter_us,omitempty"`
}

// Request is one run of the grid as a single concrete configuration: what a
// cell carries, and what a client submits to the detection service to open
// a session (service.RunRequest is this type). The JSON tags are that
// service's wire format. Zero optional fields take the sweep's defaults
// (see Defaulted); a nil Detect or Checkpoint means on.
type Request struct {
	// Tenant names the client a service session is accounted to; empty maps
	// to service.DefaultTenant. Per-tenant admission quotas are enforced
	// against this identity, so one noisy tenant saturates its own quota
	// instead of the whole service. It is not part of the run.
	Tenant      string  `json:"tenant,omitempty"`
	App         string  `json:"app"`
	Scale       float64 `json:"scale,omitempty"`
	Procs       int     `json:"procs,omitempty"`
	Protocol    string  `json:"protocol,omitempty"`
	Detect      *bool   `json:"detect,omitempty"`
	Sharded     bool    `json:"sharded,omitempty"`
	BarrierTree int     `json:"barrier_tree,omitempty"`
	Checkpoint  *bool   `json:"checkpoint,omitempty"`
	CrashMode   string  `json:"crash_mode,omitempty"`
	CorruptMode string  `json:"corrupt_mode,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	// Frontend names the engine the client expects App to run on: "dsm"
	// for the simulated DSM, "go" for the gofront happens-before frontend,
	// whose apps are the gofront workloads and whose knobs are HotSkew and
	// Racy. It chooses nothing — App does — so empty takes the app's
	// engine and any other value is refused.
	Frontend string     `json:"frontend,omitempty"`
	HotSkew  float64    `json:"hot_skew,omitempty"`
	Racy     bool       `json:"racy,omitempty"`
	Faults   *FaultAxis `json:"faults,omitempty"`
}

// Cell is one expanded grid point: a fully determined request with a
// stable ID that doubles as its result file name.
type Cell struct {
	ID string `json:"id"`
	Request
}

func (r Request) detect() bool     { return r.Detect == nil || *r.Detect }
func (r Request) checkpoint() bool { return r.Checkpoint == nil || *r.Checkpoint }

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// CellID derives a cell's stable ID from its axis values. Every run field
// that can differ between two runnable cells of one plan appears in it.
func CellID(r Request) string {
	id := fmt.Sprintf("%s-s%g-p%d-%s-d%d-sh%d-ck%d",
		r.App, r.Scale, r.Procs, r.Protocol,
		boolBit(r.detect()), boolBit(r.Sharded), boolBit(r.checkpoint()))
	// Tree-barrier and chaos suffixes only when active, so pre-existing
	// sweep checkpoints keep their cell names.
	if r.BarrierTree != 0 {
		id += fmt.Sprintf("-bt%d", r.BarrierTree)
	}
	if r.CrashMode != "" && r.CrashMode != "none" {
		id += "-cr" + r.CrashMode
	}
	if r.CorruptMode != "" && r.CorruptMode != "none" {
		id += "-cx" + r.CorruptMode
	}
	// Go-frontend suffixes only on gofront workloads, so dsm cell names —
	// and therefore pre-existing sweep checkpoints — are untouched.
	if gofront.IsWorkload(r.App) {
		id += "-go"
		if r.HotSkew != 0 {
			id += fmt.Sprintf("-hk%g", r.HotSkew)
		}
		if r.Racy {
			id += "-racy"
		}
	}
	return fmt.Sprintf("%s-seed%d", id, r.Seed)
}

func protocolKind(name string) (dsm.ProtocolKind, error) {
	switch name {
	case "sw", "":
		return dsm.SingleWriter, nil
	case "mw":
		return dsm.MultiWriter, nil
	}
	return 0, fmt.Errorf("sweep: unknown protocol %q (want sw or mw)", name)
}

// Defaulted returns r the way a plan names the grid point: each scalar
// field r leaves at its zero value takes the axis's singleton default
// (scale 1, 4 processes, "sw", crash and corrupt mode "none"). The seed is
// decided only for a request whose crash mode Defaulted fills in: it
// collapses to 0 unless the run consumes it (a wire-fault template or the
// go frontend). A request that states its crash mode — every expanded cell
// does — comes from a plan that has already decided its seed. It is the one
// statement of those defaults: Plan expansion fills its empty axes from it
// and the service names a submitted run with it.
func (r Request) Defaulted() Request {
	if r.Scale == 0 {
		r.Scale = 1
	}
	if r.Procs == 0 {
		r.Procs = 4
	}
	if r.Protocol == "" {
		r.Protocol = "sw"
	}
	if r.CrashMode == "" {
		r.CrashMode = "none"
		if r.Faults == nil && !gofront.IsWorkload(r.App) {
			r.Seed = 0
		}
	}
	if r.CorruptMode == "" {
		r.CorruptMode = "none"
	}
	return r
}

func defaults(p *Plan) Plan {
	d := *p
	one := Request{}.Defaulted()
	if len(d.Scales) == 0 {
		d.Scales = []float64{one.Scale}
	}
	if len(d.Procs) == 0 {
		d.Procs = []int{one.Procs}
	}
	if len(d.Protocols) == 0 {
		d.Protocols = []string{one.Protocol}
	}
	if len(d.Detect) == 0 {
		d.Detect = []bool{true}
	}
	if len(d.Sharded) == 0 {
		d.Sharded = []bool{false}
	}
	if len(d.BarrierTrees) == 0 {
		d.BarrierTrees = []int{0}
	}
	if len(d.Checkpoint) == 0 {
		d.Checkpoint = []bool{true}
	}
	if len(d.CrashModes) == 0 {
		d.CrashModes = []string{one.CrashMode}
	}
	if len(d.CorruptModes) == 0 {
		d.CorruptModes = []string{one.CorruptMode}
	}
	if len(d.Seeds) == 0 || (d.Faults == nil && !d.chaotic() && !d.goFront()) {
		d.Seeds = []int64{one.Seed}
	}
	return d
}

// goFront reports whether any cell will run under the go frontend, whose
// scheduler makes the Seeds axis meaningful without wire or chaos faults.
func (p *Plan) goFront() bool { return slices.ContainsFunc(p.Apps, gofront.IsWorkload) }

// chaotic reports whether any axis value injects seed-driven process
// faults, making the Seeds axis meaningful without wire faults.
func (p *Plan) chaotic() bool {
	return slices.ContainsFunc(p.CrashModes, chaoticMode) || slices.ContainsFunc(p.CorruptModes, chaoticMode)
}

// chaoticMode reports whether a crash or corruption mode injects faults.
func chaoticMode(m string) bool { return m != "" && m != "none" }

func validMode(mode string, valid []string) bool {
	if mode == "" {
		return true
	}
	for _, v := range valid {
		if v == mode {
			return true
		}
	}
	return false
}

// Expand validates the plan and returns its cell list in grid order: the
// cartesian product of the axes, in Plan field order, minus the points
// harness.ValidateRunConfig rejects. Values no cell could run with (an
// unknown protocol, a negative scale, arity 1, a fault probability above
// 1, ...) are errors rather than skips, as are duplicate cell IDs (a
// repeated axis value).
func (p *Plan) Expand() ([]Cell, error) {
	if len(p.Apps) == 0 {
		return nil, fmt.Errorf("sweep: plan has no applications")
	}
	d := defaults(p)
	for _, sc := range d.Scales {
		if sc < 0 {
			return nil, fmt.Errorf("sweep: negative scale %g", sc)
		}
	}
	for _, proto := range d.Protocols {
		if _, err := protocolKind(proto); err != nil {
			return nil, err
		}
	}
	for _, pc := range d.Procs {
		if pc < 1 {
			return nil, fmt.Errorf("sweep: invalid process count %d", pc)
		}
	}
	for _, bt := range d.BarrierTrees {
		if err := dsm.CheckBarrierTree(bt); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	for _, m := range d.CrashModes {
		if !validMode(m, harness.CrashModes) {
			return nil, fmt.Errorf("sweep: unknown crash mode %q (want %v)", m, harness.CrashModes)
		}
	}
	for _, m := range d.CorruptModes {
		if !validMode(m, harness.CorruptModes) {
			return nil, fmt.Errorf("sweep: unknown corrupt mode %q (want %v)", m, harness.CorruptModes)
		}
	}
	if d.Faults != nil {
		if err := d.Faults.plan(0).Validate(); err != nil {
			return nil, fmt.Errorf("sweep: fault template: %w", err)
		}
	}
	// Go-frontend axes default locally (not in defaults()) to keep
	// pre-existing plan fingerprints stable.
	hotSkews := d.HotSkews
	if len(hotSkews) == 0 {
		hotSkews = []float64{0}
	}
	for _, hk := range hotSkews {
		if hk < 0 || hk >= 1 {
			return nil, fmt.Errorf("sweep: hot-key skew %g out of [0,1)", hk)
		}
	}
	racies := d.Racy
	if len(racies) == 0 {
		racies = []bool{false}
	}

	// Walk the product like an odometer, last axis fastest. No axis is
	// empty after defaulting, so there is at least one candidate.
	dims := [...]int{len(d.Apps), len(d.Scales), len(d.Procs), len(d.Protocols),
		len(d.Detect), len(d.Sharded), len(d.BarrierTrees), len(d.Checkpoint),
		len(d.CrashModes), len(d.CorruptModes), len(hotSkews), len(racies), len(d.Seeds)}
	var at [len(dims)]int
	var cells []Cell
	// Every cell states its modes (an empty axis value names "none"), so
	// a node's Defaulted leaves the seed the plan decided alone.
	one := Request{}.Defaulted()
	seen := make(map[string]bool)
	for {
		r := Request{
			App: d.Apps[at[0]], Scale: d.Scales[at[1]], Procs: d.Procs[at[2]], Protocol: d.Protocols[at[3]],
			Detect: ptr(d.Detect[at[4]]), Sharded: d.Sharded[at[5]], BarrierTree: d.BarrierTrees[at[6]],
			Checkpoint: ptr(d.Checkpoint[at[7]]), CrashMode: cmp.Or(d.CrashModes[at[8]], one.CrashMode),
			CorruptMode: cmp.Or(d.CorruptModes[at[9]], one.CorruptMode), HotSkew: hotSkews[at[10]],
			Racy: racies[at[11]], Seed: d.Seeds[at[12]], Faults: d.Faults,
		}
		// An application no registry knows is kept: the typo then shows up
		// as failed cells, not as a silently smaller (or empty) grid.
		if c, _, err := r.Resolve(); err == nil || errors.Is(err, harness.ErrUnknownApp) {
			if seen[c.ID] {
				return nil, fmt.Errorf("sweep: duplicate cell %s (repeated axis value?)", c.ID)
			}
			seen[c.ID] = true
			cells = append(cells, c)
		}
		k := len(at) - 1
		for ; k >= 0; k-- {
			if at[k]++; at[k] < dims[k] {
				break
			}
			at[k] = 0
		}
		if k < 0 {
			return cells, nil
		}
	}
}

func ptr[T any](v T) *T { return &v }

// Resolve names the request as given with the ID of its grid point, and
// builds its run configuration, returning whatever error
// harness.ValidateRunConfig (or RunConfig) rejects it with. It is
// the one Request → (Cell, RunConfig) step: Expand keeps the grid points
// it accepts, and the service admits a submitted request, defaulted, only
// when it accepts.
func (r Request) Resolve() (Cell, harness.RunConfig, error) {
	cfg, err := r.RunConfig()
	if err == nil {
		err = harness.ValidateRunConfig(cfg)
	}
	return Cell{ID: CellID(r), Request: r}, cfg, err
}

// RunConfig builds the harness configuration for the request; it refuses
// an unknown protocol and a Frontend other than the app's engine. Every
// other field is passed on, meaningful for the app's engine or not, and
// the validator — not this function — decides what an engine cannot take.
// The wire template (Faults) describes the simulated network and so
// reaches DSM runs only.
func (r Request) RunConfig() (harness.RunConfig, error) {
	proto, err := protocolKind(r.Protocol)
	if err != nil {
		return harness.RunConfig{}, err
	}
	goApp, front := gofront.IsWorkload(r.App), "dsm"
	if goApp {
		front = "go"
	}
	if r.Frontend != "" && r.Frontend != front {
		return harness.RunConfig{}, fmt.Errorf("sweep: %s runs on the %q frontend, not %q", r.App, front, r.Frontend)
	}
	cfg := harness.RunConfig{
		App:         r.App,
		Scale:       r.Scale,
		Procs:       r.Procs,
		Detect:      r.detect(),
		CrashMode:   r.CrashMode,
		CorruptMode: r.CorruptMode,
		HotKeySkew:  r.HotSkew,
		Racy:        r.Racy,
		Seed:        r.Seed,
		DSM: dsm.Config{
			Protocol:     proto,
			ShardedCheck: r.Sharded,
			BarrierTree:  r.BarrierTree,
			NoCheckpoint: !r.checkpoint(),
		},
	}
	if r.Faults != nil && !goApp {
		cfg.DSM.Faults = r.Faults.plan(r.Seed)
	}
	return cfg, nil
}

// plan instantiates the template with one cell's seed.
func (f *FaultAxis) plan(seed int64) *simnet.FaultPlan {
	return &simnet.FaultPlan{
		Seed:     seed,
		Drop:     f.Drop,
		Dup:      f.Dup,
		Reorder:  f.Reorder,
		JitterNS: f.JitterUS * 1000,
	}
}

// Fingerprint is the plan's identity for resumability: the SHA-256 of its
// canonical JSON encoding. Two plans fingerprint equal exactly when they
// expand to the same grid with the same run configurations.
func (p *Plan) Fingerprint() string {
	b, err := json.Marshal(defaults(p))
	if err != nil {
		// Plan has no unmarshalable fields; keep the signature clean.
		panic(fmt.Sprintf("sweep: marshaling plan: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

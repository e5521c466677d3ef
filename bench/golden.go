package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// goldenJSON is the committed reference every run is checked against. It is
// compiled in, so an edit takes effect on the next `go run`.
//
//go:embed golden.json
var goldenJSON []byte

// goldenEntry is the reference for one program run: simulated statistics
// that repeated exactly over twenty trials, observed min/max for the ones
// that depend on real scheduling, and the racy variables the detector must
// report (empty for a race-free program).
type goldenEntry struct {
	Exact map[string]int64    `json:"exact,omitempty"`
	Band  map[string][2]int64 `json:"band,omitempty"`
	Racy  []string            `json:"racy"`
}

// goldens maps a run key ("dsm-barrier/SOR/on", "gofront-kv/seed=1/...") to
// its reference. Keys that depend on the seed carry it.
type goldens struct {
	// BandSlack widens every band by this share of its bounds before a value
	// is called a mismatch: the bands were observed on one box, and virtual
	// time that follows real lock-arrival order moves with the host's load.
	BandSlack float64                `json:"band_slack"`
	Runs      map[string]goldenEntry `json:"runs"`

	// recording makes observe fold observations in instead of checking them
	// (-write-golden).
	recording bool
}

func loadGoldens(b []byte) (*goldens, error) {
	g := &goldens{}
	if err := json.Unmarshal(b, g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Runs == nil {
		g.Runs = map[string]goldenEntry{}
	}
	return g, nil
}

// observation is what one run produced, in golden terms.
type observation struct {
	exact map[string]int64
	band  map[string]int64
	racy  []string
}

// observe checks o against the golden for key — or, when recording, folds
// it in — and returns one line per mismatch.
func (g *goldens) observe(key string, seeded bool, o observation) []string {
	if g.recording {
		if err := g.record(key, o); err != nil {
			return []string{err.Error()}
		}
		return nil
	}
	return g.check(key, seeded, o)
}

// check compares an observation with its golden and returns one line per
// mismatch. A seeded key with no entry is not a mismatch — goldens exist
// only for the seeds they were recorded on — but a seed-independent one is.
func (g *goldens) check(key string, seeded bool, o observation) []string {
	e, ok := g.Runs[key]
	if !ok {
		if seeded {
			return nil
		}
		return []string{fmt.Sprintf("%s: no golden entry", key)}
	}
	var bad []string
	for name, want := range e.Exact {
		if got, ok := o.exact[name]; !ok || got != want {
			bad = append(bad, fmt.Sprintf("%s: %s = %d, golden %d", key, name, got, want))
		}
	}
	for name, b := range e.Band {
		got, ok := o.band[name]
		lo := float64(b[0]) * (1 - g.BandSlack)
		hi := float64(b[1]) * (1 + g.BandSlack)
		if !ok || float64(got) < lo || float64(got) > hi {
			bad = append(bad, fmt.Sprintf("%s: %s = %d outside golden band [%d, %d] ±%.0f%%",
				key, name, got, b[0], b[1], 100*g.BandSlack))
		}
	}
	if !sameStrings(e.Racy, o.racy) {
		bad = append(bad, fmt.Sprintf("%s: racy variables %v, golden %v", key, o.racy, e.Racy))
	}
	return bad
}

// record folds an observation into the goldens being (re)written: exact
// values must repeat, bands widen to cover what was seen.
func (g *goldens) record(key string, o observation) error {
	e, ok := g.Runs[key]
	if !ok {
		e = goldenEntry{Exact: map[string]int64{}, Band: map[string][2]int64{}, Racy: append([]string{}, o.racy...)}
		for name, v := range o.exact {
			e.Exact[name] = v
		}
		for name, v := range o.band {
			e.Band[name] = [2]int64{v, v}
		}
		g.Runs[key] = e
		return nil
	}
	for name, v := range o.exact {
		if e.Exact[name] != v {
			return fmt.Errorf("%s: %s did not repeat (%d then %d): it belongs in a band", key, name, e.Exact[name], v)
		}
	}
	for name, v := range o.band {
		b := e.Band[name]
		if v < b[0] {
			b[0] = v
		}
		if v > b[1] {
			b[1] = v
		}
		e.Band[name] = b
	}
	if !sameStrings(e.Racy, o.racy) {
		return fmt.Errorf("%s: racy variables did not repeat (%v then %v)", key, e.Racy, o.racy)
	}
	return nil
}

func (g *goldens) write(path string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sameStrings compares two string sets.
func sameStrings(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

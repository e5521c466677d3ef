package micro

import (
	"sort"
	"testing"

	"lrcrace/internal/dsm"
	"lrcrace/internal/hbdet"
	"lrcrace/internal/mem"
	"lrcrace/internal/race"
)

// runPattern executes one pattern under the given protocol, returning the
// set of racy variable names from the LRC detector and from the attached
// happens-before reference.
func runPattern(t *testing.T, pt Pattern, proto dsm.ProtocolKind) (lrcRacy, hbRacy map[string]bool) {
	t.Helper()
	hb := hbdet.New(pt.Procs)
	sys, err := dsm.New(dsm.Config{
		NumProcs:   pt.Procs,
		SharedSize: 4096,
		PageSize:   1024,
		Protocol:   proto,
		Detect:     true,
		Tracer:     hb,
	})
	if err != nil {
		t.Fatal(err)
	}
	vars, err := pt.Alloc(sys)
	if err != nil {
		t.Fatal(err)
	}
	gates := make(map[string]*dsm.Gate, len(pt.Gates))
	for _, g := range pt.Gates {
		gates[g] = &dsm.Gate{}
	}
	if err := sys.Run(func(p *dsm.Proc) { pt.Worker(p, vars, gates) }); err != nil {
		t.Fatal(err)
	}

	nameOf := func(a mem.Addr) string {
		sym, ok := sys.SymbolAt(a)
		if !ok {
			t.Fatalf("%s: race at unmapped address %#x", pt.Name, a)
		}
		return sym.Name
	}
	lrcRacy = map[string]bool{}
	for _, r := range race.DedupByAddr(sys.Races()) {
		lrcRacy[nameOf(r.Addr)] = true
	}
	hbRacy = map[string]bool{}
	for _, a := range hb.RacyAddrs() {
		hbRacy[nameOf(a)] = true
	}
	return lrcRacy, hbRacy
}

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestCorpus runs every pattern under both LRC protocols and checks the
// expected racy/clean partition, plus agreement with the happens-before
// reference detector.
func TestCorpus(t *testing.T) {
	for _, proto := range []dsm.ProtocolKind{dsm.SingleWriter, dsm.MultiWriter} {
		for _, pt := range All() {
			pt := pt
			t.Run(proto.String()+"/"+pt.Name, func(t *testing.T) {
				lrcRacy, hbRacy := runPattern(t, pt, proto)
				for _, want := range pt.WantRacy {
					if !lrcRacy[want] {
						t.Errorf("expected race on %q not reported (got %v)", want, sortedKeys(lrcRacy))
					}
				}
				for _, want := range pt.WantClean {
					if lrcRacy[want] {
						t.Errorf("false positive on %q", want)
					}
				}
				// Nothing outside the declared variables may be flagged.
				declared := map[string]bool{}
				for _, v := range pt.Vars {
					declared[v] = true
				}
				for name := range lrcRacy {
					if !declared[name] {
						t.Errorf("race on undeclared variable %q", name)
					}
				}
				// Cross-check with the happens-before reference.
				if len(lrcRacy) != len(hbRacy) {
					t.Errorf("detectors disagree: lrc=%v hb=%v", sortedKeys(lrcRacy), sortedKeys(hbRacy))
				}
				for name := range lrcRacy {
					if !hbRacy[name] {
						t.Errorf("lrc-only race on %q (hb=%v)", name, sortedKeys(hbRacy))
					}
				}
			})
		}
	}
}

// TestCorpusShape sanity-checks the corpus itself.
func TestCorpusShape(t *testing.T) {
	seen := map[string]bool{}
	for _, pt := range All() {
		if seen[pt.Name] {
			t.Errorf("duplicate pattern name %q", pt.Name)
		}
		seen[pt.Name] = true
		if pt.Procs < 2 {
			t.Errorf("%s: needs at least 2 procs", pt.Name)
		}
		if len(pt.WantRacy)+len(pt.WantClean) == 0 {
			t.Errorf("%s: no expectations", pt.Name)
		}
		declared := map[string]bool{}
		for _, v := range pt.Vars {
			declared[v] = true
		}
		for _, v := range append(append([]string{}, pt.WantRacy...), pt.WantClean...) {
			if !declared[v] {
				t.Errorf("%s: expectation on undeclared variable %q", pt.Name, v)
			}
		}
	}
	if len(seen) < 10 {
		t.Errorf("corpus has only %d patterns", len(seen))
	}
}

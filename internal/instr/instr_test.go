package instr

import (
	"testing"
	"testing/quick"
)

func TestClassifyRules(t *testing.T) {
	b := &Binary{
		Name: "toy",
		Funcs: []Func{
			{Name: "main", Region: RegionApp, Instrs: []Instr{
				{Load, BaseFP}, {Store, BaseFP}, // stack
				{Load, BaseGP},                    // static
				{Load, BaseDyn}, {Store, BaseDyn}, // instrumented
			}},
			{Name: "memcpy", Region: RegionLibrary, Instrs: []Instr{
				{Load, BaseDyn}, {Store, BaseDyn}, {Load, BaseDyn},
			}},
			{Name: "cvm_fault", Region: RegionCVM, Instrs: []Instr{
				{Load, BaseDyn},
			}},
		},
	}
	s := Classify(b)
	if s.Stack != 2 || s.Static != 1 || s.Library != 3 || s.CVM != 1 || s.Instrumented != 2 {
		t.Errorf("Classify = %v", s)
	}
	if s.Total() != 9 || numInstrs(b) != 9 {
		t.Errorf("totals: %d vs %d", s.Total(), numInstrs(b))
	}
	want := 100 * 7.0 / 9.0
	if got := s.PercentEliminated(); got < want-0.01 || got > want+0.01 {
		t.Errorf("PercentEliminated = %f, want %f", got, want)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestClassifyEmpty(t *testing.T) {
	s := Classify(&Binary{Name: "empty"})
	if s.Total() != 0 || s.PercentEliminated() != 0 {
		t.Errorf("empty binary: %v", s)
	}
}

// TestSynthesizeMatchesProfile: the classifier applied to a synthesized
// binary recovers exactly the profile's per-category budgets (Table 2).
func TestSynthesizeMatchesProfile(t *testing.T) {
	for name, p := range PaperProfiles {
		b := Synthesize(p)
		s := Classify(b)
		if s.Stack != p.Stack || s.Static != p.Static || s.Library != p.Library ||
			s.CVM != p.CVM || s.Instrumented != p.Dynamic {
			t.Errorf("%s: classified %v, want profile %+v", name, s, p)
		}
		if s.PercentEliminated() <= 99.0 {
			t.Errorf("%s: only %.2f%% eliminated, paper reports >99%%", name, s.PercentEliminated())
		}
	}
}

// TestSynthesizeDeterministic: same profile, same binary.
func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(PaperProfiles["FFT"])
	b := Synthesize(PaperProfiles["FFT"])
	if len(a.Funcs) != len(b.Funcs) {
		t.Fatalf("func counts differ: %d vs %d", len(a.Funcs), len(b.Funcs))
	}
	for i := range a.Funcs {
		if a.Funcs[i].Name != b.Funcs[i].Name || len(a.Funcs[i].Instrs) != len(b.Funcs[i].Instrs) {
			t.Fatalf("func %d differs", i)
		}
		for j := range a.Funcs[i].Instrs {
			if a.Funcs[i].Instrs[j] != b.Funcs[i].Instrs[j] {
				t.Fatalf("instr %d/%d differs", i, j)
			}
		}
	}
}

// TestSynthesizeLoadStoreMix: stores should be roughly a quarter of
// accesses ("approximately 25% of all data accesses are stores").
func TestSynthesizeLoadStoreMix(t *testing.T) {
	b := Synthesize(PaperProfiles["FFT"])
	stores, total := 0, 0
	for _, f := range b.Funcs {
		for _, in := range f.Instrs {
			total++
			if in.Kind == Store {
				stores++
			}
		}
	}
	frac := float64(stores) / float64(total)
	if frac < 0.20 || frac > 0.30 {
		t.Errorf("store fraction = %.3f, want ≈0.25", frac)
	}
}

func TestChecker(t *testing.T) {
	c := &Checker{Lo: 1000, Hi: 2000}
	cases := []struct {
		addr uint64
		want bool
	}{
		{999, false}, {1000, true}, {1999, true}, {2000, false}, {0, false},
	}
	for _, cse := range cases {
		if got := c.Check(cse.addr); got != cse.want {
			t.Errorf("Check(%d) = %v, want %v", cse.addr, got, cse.want)
		}
	}
	if c.Shared != 2 || c.Private != 3 {
		t.Errorf("counters: shared=%d private=%d", c.Shared, c.Private)
	}
}

// Property: classification is a partition — every instruction lands in
// exactly one category.
func TestPropertyClassifyPartition(t *testing.T) {
	f := func(seed int64, nf uint8) bool {
		p := Profile{
			App:     "x",
			Stack:   int(uint8(seed)) % 50,
			Static:  int(uint8(seed>>8)) % 50,
			Library: int(uint8(seed>>16)) % 200,
			CVM:     int(uint8(seed>>24)) % 100,
			Dynamic: int(nf) % 50,
		}
		b := Synthesize(p)
		s := Classify(b)
		return s.Total() == numInstrs(b) &&
			s.Stack == p.Stack && s.Static == p.Static &&
			s.Library == p.Library && s.CVM == p.CVM && s.Instrumented == p.Dynamic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCheckerCheck(b *testing.B) {
	c := &Checker{Lo: 1 << 20, Hi: 1 << 24}
	for i := 0; i < b.N; i++ {
		c.Check(uint64(i) << 8)
	}
}

// numInstrs counts the binary's memory-access instructions.
func numInstrs(b *Binary) int {
	n := 0
	for _, f := range b.Funcs {
		n += len(f.Instrs)
	}
	return n
}

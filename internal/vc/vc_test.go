package vc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsZero(t *testing.T) {
	v := New(4)
	if len(v) != 4 {
		t.Fatalf("len = %d, want 4", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Errorf("v[%d] = %d, want 0", i, x)
		}
	}
}

func TestCopyIndependence(t *testing.T) {
	v := VC{1, 2, 3}
	c := v.Copy()
	c[0] = 99
	if v[0] != 1 {
		t.Errorf("copy aliases original: v[0] = %d", v[0])
	}
	if !v.Equal(VC{1, 2, 3}) {
		t.Errorf("original mutated: %v", v)
	}
}

func TestMerge(t *testing.T) {
	v := VC{1, 5, 0}
	v.Merge(VC{3, 2, 4})
	want := VC{3, 5, 4}
	if !v.Equal(want) {
		t.Errorf("merge = %v, want %v", v, want)
	}
}

func TestEqualLengthMismatch(t *testing.T) {
	if (VC{1}).Equal(VC{1, 0}) {
		t.Error("vectors of different length reported equal")
	}
}

func TestString(t *testing.T) {
	if s := (VC{1, 0, 7}).String(); s != "<1,0,7>" {
		t.Errorf("String = %q", s)
	}
	if s := (IntervalID{2, 9}).String(); s != "σ2^9" {
		t.Errorf("IntervalID.String = %q", s)
	}
}

// TestPrecedesProgramOrder checks intra-process ordering.
func TestPrecedesProgramOrder(t *testing.T) {
	a := IntervalID{0, 1}
	b := IntervalID{0, 2}
	bvc := VC{2, 0}
	if !Precedes(a, b, bvc) {
		t.Error("σ0^1 should precede σ0^2 by program order")
	}
	if Precedes(b, a, VC{1, 0}) {
		t.Error("σ0^2 should not precede σ0^1")
	}
}

// TestPrecedesCrossProcess mirrors Figure 2 of the paper: P1 has intervals
// 1,2; P2 has intervals 1,2; P2's interval 2 begins with the acquire
// matching the release ending P1's interval 1. So σ1^1 ≺ σ2^2, while
// σ1^2 ∥ σ2^2.
func TestPrecedesCrossProcess(t *testing.T) {
	// Using proc 0 for P1, proc 1 for P2.
	p1i1 := IntervalID{0, 1}
	p1i2 := IntervalID{0, 2}
	p2i2 := IntervalID{1, 2}
	p1i2vc := VC{2, 0} // P1 never saw anything of P2
	p2i2vc := VC{1, 2} // P2's acquire brought it P1's interval 1

	if !Precedes(p1i1, p2i2, p2i2vc) {
		t.Error("σ1^1 should precede σ2^2")
	}
	if Precedes(p1i2, p2i2, p2i2vc) {
		t.Error("σ1^2 should not precede σ2^2")
	}
	if !Concurrent(p1i2, p1i2vc, p2i2, p2i2vc) {
		t.Error("σ1^2 and σ2^2 should be concurrent")
	}
	if Concurrent(p1i1, VC{1, 0}, p2i2, p2i2vc) {
		t.Error("σ1^1 and σ2^2 should not be concurrent")
	}
}

func TestConcurrentIsSymmetric(t *testing.T) {
	a := IntervalID{0, 3}
	b := IntervalID{1, 4}
	avc := VC{3, 1}
	bvc := VC{2, 4}
	if Concurrent(a, avc, b, bvc) != Concurrent(b, bvc, a, avc) {
		t.Error("Concurrent is not symmetric")
	}
}

// randomExecution builds a random but causally consistent set of interval
// vectors for nproc processes with k intervals each, by simulating random
// release/acquire message passing. Returns vcs[p][i] = vector of σ_p^(i+1).
func randomExecution(r *rand.Rand, nproc, k int) [][]VC {
	cur := make([]VC, nproc)
	idx := make([]Index, nproc)
	for p := range cur {
		cur[p] = New(nproc)
	}
	vcs := make([][]VC, nproc)
	// Start interval 1 on each process.
	for p := 0; p < nproc; p++ {
		idx[p] = 1
		cur[p][p] = 1
		vcs[p] = append(vcs[p], cur[p].Copy())
	}
	steps := nproc * (k - 1)
	for s := 0; s < steps; s++ {
		// Pick a process to start a new interval; with probability 1/2 it
		// first "acquires from" a random other process (sync edge).
		p := -1
		for try := 0; try < 64; try++ {
			q := r.Intn(nproc)
			if int(idx[q]) < k {
				p = q
				break
			}
		}
		if p < 0 {
			for q := 0; q < nproc; q++ {
				if int(idx[q]) < k {
					p = q
					break
				}
			}
			if p < 0 {
				break
			}
		}
		if r.Intn(2) == 0 {
			q := r.Intn(nproc)
			cur[p].Merge(cur[q]) // release at q's current point → acquire at p
		}
		idx[p]++
		cur[p][p] = idx[p]
		vcs[p] = append(vcs[p], cur[p].Copy())
	}
	return vcs
}

// TestPropertyOrderingConsistent: over random causal executions,
// happens-before-1 as computed by Precedes must be a strict partial order
// (irreflexive, antisymmetric, transitive) and Concurrent must be its
// complement.
func TestPropertyOrderingConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nproc := 2 + r.Intn(4)
		k := 2 + r.Intn(4)
		vcs := randomExecution(r, nproc, k)
		type node struct {
			id IntervalID
			v  VC
		}
		var all []node
		for p := range vcs {
			for i, v := range vcs[p] {
				all = append(all, node{IntervalID{p, Index(i + 1)}, v})
			}
		}
		for _, a := range all {
			if Precedes(a.id, a.id, a.v) {
				return false // reflexive
			}
			for _, b := range all {
				if a.id == b.id {
					continue
				}
				ab := Precedes(a.id, b.id, b.v)
				ba := Precedes(b.id, a.id, a.v)
				if ab && ba {
					return false // antisymmetry violated
				}
				if Concurrent(a.id, a.v, b.id, b.v) != (!ab && !ba) {
					return false
				}
				if ab {
					// transitivity: a≺b and b≺c ⇒ a≺c
					for _, c := range all {
						if c.id == a.id || c.id == b.id {
							continue
						}
						if Precedes(b.id, c.id, c.v) && !Precedes(a.id, c.id, c.v) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMergeIsLUB: Merge produces the least upper bound.
func TestPropertyMergeIsLUB(t *testing.T) {
	f := func(a8, b8 [6]uint16) bool {
		a, b := New(6), New(6)
		for i := 0; i < 6; i++ {
			a[i], b[i] = Index(a8[i]), Index(b8[i])
		}
		m := a.Copy()
		m.Merge(b)
		// Upper bound, and least: each entry is one of the two it bounds.
		for i := range m {
			if m[i] < a[i] || m[i] < b[i] || (m[i] != a[i] && m[i] != b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

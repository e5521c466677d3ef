// Package vc implements version vectors (vector timestamps) and interval
// identifiers, the ordering substrate of lazy release consistency.
//
// Under LRC, the execution of each process is divided into intervals; a new
// interval begins at every acquire, release, or barrier. Intervals are
// related by the happens-before-1 partial order: program order on a single
// process, release-to-matching-acquire order across processes, and the
// transitive closure of the two. Each interval carries a version vector;
// entry p of the vector of interval σ_q^j is the index of the most recent
// interval of process p whose effects were visible to q when σ_q^j began.
//
// The paper's central observation is that this metadata, already maintained
// by any LRC implementation, answers "are these two intervals concurrent?"
// in constant time: σ_p^i precedes σ_q^j exactly when vc(σ_q^j)[p] >= i.
package vc

import "fmt"

// Index is an interval index: the per-process count of intervals, starting
// at 1 for the first interval (0 means "none seen").
type Index uint32

// VC is a version vector with one entry per process. Entry p holds the
// highest interval index of process p that the owner has seen.
type VC []Index

// New returns a zeroed version vector for n processes.
func New(n int) VC { return make(VC, n) }

// Copy returns an independent copy of v.
func (v VC) Copy() VC {
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// Merge sets v to the entry-wise maximum of v and o.
func (v VC) Merge(o VC) {
	for i, x := range o {
		if x > v[i] {
			v[i] = x
		}
	}
}

// Equal reports whether v and o are identical.
func (v VC) Equal(o VC) bool {
	if len(v) != len(o) {
		return false
	}
	for i, x := range o {
		if v[i] != x {
			return false
		}
	}
	return true
}

// String renders the vector as "<i0,i1,...>".
func (v VC) String() string {
	s := "<"
	for i, x := range v {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(uint32(x))
	}
	return s + ">"
}

// IntervalID names interval σ_Proc^Index.
type IntervalID struct {
	Proc  int
	Index Index
}

func (id IntervalID) String() string {
	return fmt.Sprintf("σ%d^%d", id.Proc, uint32(id.Index))
}

// Precedes reports whether interval a happens-before-1 interval b, where
// bvc is the version vector of b. On the same process, program order
// decides; across processes, a precedes b iff b's vector has seen a's
// index. This is the paper's constant-time ordering check.
func Precedes(a IntervalID, b IntervalID, bvc VC) bool {
	if a.Proc == b.Proc {
		return a.Index < b.Index
	}
	return bvc[a.Proc] >= a.Index
}

// Concurrent reports whether intervals a and b are unordered by
// happens-before-1. avc and bvc are the respective version vectors. Two
// integer comparisons, as in the paper.
func Concurrent(a IntervalID, avc VC, b IntervalID, bvc VC) bool {
	return !Precedes(a, b, bvc) && !Precedes(b, a, avc)
}

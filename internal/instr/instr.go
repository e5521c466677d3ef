// Package instr models the ATOM-based binary instrumentation of the paper:
// a static classifier that walks a binary's load/store instructions and
// eliminates the ones that cannot touch shared memory, and the runtime
// access check performed by the analysis routine for the remainder.
//
// The paper instruments DEC Alpha executables with ATOM; Go cannot rewrite
// its own binaries, so the repository substitutes a faithful model: each
// application carries a synthetic instruction-stream representation of its
// Alpha binary (functions tagged by code region, instructions tagged by
// addressing base), and the classifier applies exactly the paper's
// elimination rules:
//
//   - instructions in shared libraries are not instrumented (none of the
//     applications pass shared pointers to libraries);
//   - instructions in the CVM runtime itself are not instrumented;
//   - accesses through the frame pointer reference the stack — eliminated;
//   - accesses through the static-data base register reference statically
//     allocated globals — eliminated, because CVM allocates all shared
//     memory dynamically;
//   - everything else might reference shared memory and is instrumented
//     with a procedure call to the analysis routine.
//
// On average this statically eliminates over 99% of loads and stores
// (Table 2); the residual instrumented accesses are checked at run time
// against the shared-segment bounds (most turn out private — Table 3).
package instr

import "fmt"

// Region tags which part of the executable a function belongs to.
type Region uint8

const (
	RegionApp Region = iota
	RegionLibrary
	RegionCVM
)

// Base is the addressing-mode base register class of a load or store.
type Base uint8

const (
	// BaseFP: frame-pointer relative — a stack access.
	BaseFP Base = iota
	// BaseGP: global-pointer relative — statically allocated data.
	BaseGP
	// BaseDyn: computed address — could reference shared memory.
	BaseDyn
)

// Kind distinguishes loads from stores.
type Kind uint8

const (
	Load Kind = iota
	Store
)

// Instr is one memory-access instruction.
type Instr struct {
	Kind Kind
	Base Base
}

// Func is one routine of the binary.
type Func struct {
	Name   string
	Region Region
	Instrs []Instr
}

// Binary is the instruction-stream model of one executable.
type Binary struct {
	Name  string
	Funcs []Func
}

// ClassifyStats breaks the binary's loads and stores into the categories of
// the paper's Table 2.
type ClassifyStats struct {
	Stack        int // eliminated: frame-pointer based
	Static       int // eliminated: static-data base register
	Library      int // eliminated: shared-library code
	CVM          int // eliminated: the DSM runtime itself
	Instrumented int // residual: instrumented with an analysis call
}

// Total returns the total loads and stores examined.
func (s ClassifyStats) Total() int {
	return s.Stack + s.Static + s.Library + s.CVM + s.Instrumented
}

// PercentEliminated returns the share of loads/stores statically removed
// from consideration as race participants.
func (s ClassifyStats) PercentEliminated() float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(t-s.Instrumented) / float64(t)
}

func (s ClassifyStats) String() string {
	return fmt.Sprintf("stack=%d static=%d library=%d cvm=%d instrumented=%d (%.2f%% eliminated)",
		s.Stack, s.Static, s.Library, s.CVM, s.Instrumented, s.PercentEliminated())
}

// Classify applies the elimination rules to every load and store of b.
func Classify(b *Binary) ClassifyStats {
	var s ClassifyStats
	for _, f := range b.Funcs {
		switch f.Region {
		case RegionLibrary:
			s.Library += len(f.Instrs)
			continue
		case RegionCVM:
			s.CVM += len(f.Instrs)
			continue
		}
		for _, in := range f.Instrs {
			switch in.Base {
			case BaseFP:
				s.Stack++
			case BaseGP:
				s.Static++
			default:
				s.Instrumented++
			}
		}
	}
	return s
}

// Checker is the runtime analysis routine's core: a bounds check of the
// access address against the shared segment. It is deliberately the same
// comparison the paper describes ("accesses to shared data are
// distinguished from accesses to private data by comparing the address
// with that of the shared data segments").
type Checker struct {
	Lo, Hi  uint64 // shared segment [Lo, Hi)
	Shared  int64
	Private int64
}

// Check records one instrumented access and reports whether it was shared.
func (c *Checker) Check(addr uint64) bool {
	if addr >= c.Lo && addr < c.Hi {
		c.Shared++
		return true
	}
	c.Private++
	return false
}

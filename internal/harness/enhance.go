package harness

import (
	"fmt"
	"io"
)

// Enhancements quantifies the paper's §6.5 "Further Performance
// Enhancements" from a measured run's counters:
//
//  1. Inlining the instrumentation (the promised ATOM feature) removes the
//     procedure-call overhead — the paper expects ≈6.7% of overhead.
//  2. Under the multi-writer protocol, write bitmaps can come from diffs,
//     so store instrumentation disappears — the paper expects ≥17% of
//     overhead ("approximately 25% of all data accesses are stores").
//  3. Inter-procedural analysis would prove many instrumented-but-private
//     accesses private — the paper reports ≈68% of analysis calls are for
//     private data; IPAFraction is the share of those assumed eliminated.
//
// All three are computed from the run's actual access counters and the
// cost model, so the prediction method is the paper's own: measured call
// counts × per-call cost.
type Enhancements struct {
	BaseOverheadPct float64 // measured total overhead (slowdown−1)

	InlinedPct   float64 // overhead with proc-call cost removed
	DiffWritePct float64 // overhead with store instrumentation removed
	IPAPct       float64 // overhead with IPAFraction of private calls removed
	CombinedPct  float64 // all three together

	StoreShare   float64 // stores / (all shared accesses), cf. paper's ~25%
	PrivateShare float64 // private calls / all instrumented calls, cf. ~68%
}

// IPAFraction is the share of instrumented-but-private calls assumed
// removable by inter-procedural analysis (the paper says "many"; we use a
// conservative half).
const IPAFraction = 0.5

// ComputeEnhancements derives the §6.5 predictions for one baseline/detect
// pair.
func ComputeEnhancements(base, det *Result) Enhancements {
	m := det.Model
	n := float64(len(det.Procs))
	bt := float64(base.VirtualNS)

	var reads, writes, private int64
	for _, st := range det.Procs {
		reads += st.SharedReads
		writes += st.SharedWrites
		private += st.PrivateAccesses
	}
	calls := reads + writes + private
	procCall := float64(calls) * float64(m.ProcCall) / n / bt * 100
	storeInstr := float64(writes) * float64(m.InstrCost()) / n / bt * 100
	ipa := IPAFraction * float64(private) * float64(m.InstrCost()) / n / bt * 100

	total := 100 * (float64(det.VirtualNS) - float64(base.VirtualNS)) / bt
	e := Enhancements{
		BaseOverheadPct: total,
		InlinedPct:      total - procCall,
		DiffWritePct:    total - storeInstr,
		IPAPct:          total - ipa,
		CombinedPct:     total - procCall - storeInstr - ipa,
	}
	if reads+writes > 0 {
		e.StoreShare = float64(writes) / float64(reads+writes)
	}
	if calls > 0 {
		e.PrivateShare = float64(private) / float64(calls)
	}
	return e
}

// EnhancementsTable prints the §6.5 predictions for every application.
func (s *Suite) EnhancementsTable(w io.Writer) error {
	fmt.Fprintf(w, "§6.5 Enhancements: predicted overhead after each optimization (%% of base runtime, %d procs)\n", s.Procs)
	fmt.Fprintf(w, "%-7s %10s %10s %12s %8s %10s %12s %13s\n",
		"", "Measured", "Inlined", "Diff-writes", "IPA", "Combined", "store share", "private share")
	for _, app := range AppNames {
		base, det, err := s.pair(app, s.Procs)
		if err != nil {
			return err
		}
		e := ComputeEnhancements(base, det)
		fmt.Fprintf(w, "%-7s %9.1f%% %9.1f%% %11.1f%% %7.1f%% %9.1f%% %11.0f%% %12.0f%%\n",
			app, e.BaseOverheadPct, e.InlinedPct, e.DiffWritePct, e.IPAPct, e.CombinedPct,
			100*e.StoreShare, 100*e.PrivateShare)
	}
	fmt.Fprintln(w, "(paper: inlining removes ≈6.7% of overhead; diff-writes ≥17%; ≈68% of calls are private)")
	return nil
}

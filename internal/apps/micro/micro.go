// Package micro is a corpus of small synchronization patterns with known
// race-detection outcomes — the regression suite for the detector. Each
// pattern declares exactly which shared variables must be flagged racy and
// which must stay clean; the tests run every pattern under both LRC
// protocols and cross-check against the happens-before reference detector.
//
// Patterns use gates (dsm.Gate, invisible to the DSM's ordering metadata)
// to pin phase orderings where a pattern's outcome depends on them. Note that metadata
// concurrency is what the detector judges: two accesses with no DSM
// synchronization chain between them are concurrent — and must be flagged —
// even if real time happened to serialize them. The gating only removes
// scheduling nondeterminism; it never creates or hides races.
package micro

import (
	"fmt"

	"lrcrace/internal/dsm"
	"lrcrace/internal/mem"
)

// Pattern is one corpus entry.
type Pattern struct {
	Name  string
	Procs int
	// Vars lists the shared variables to allocate, one word each, in
	// order. Patterns address them by name.
	Vars []string
	// Worker is the per-process body; gates is a per-pattern set of gates
	// the pattern may use for staging.
	Worker func(p *dsm.Proc, v map[string]mem.Addr, gates map[string]*dsm.Gate)
	// Gates names the staging gates to create for each run.
	Gates []string
	// WantRacy and WantClean partition Vars by expected detector outcome.
	WantRacy  []string
	WantClean []string
}

// Alloc lays out the pattern's variables, each on its own word (same page
// is fine: word-granularity bitmaps separate them).
func (pt Pattern) Alloc(sys *dsm.System) (map[string]mem.Addr, error) {
	v := make(map[string]mem.Addr, len(pt.Vars))
	for _, name := range pt.Vars {
		a, err := sys.AllocWords(name, 1)
		if err != nil {
			return nil, fmt.Errorf("micro %s: %w", pt.Name, err)
		}
		v[name] = a
	}
	return v, nil
}

// All returns the corpus.
func All() []Pattern {
	return []Pattern{
		{
			Name:  "unsync-counter",
			Procs: 3,
			Vars:  []string{"x"},
			Worker: func(p *dsm.Proc, v map[string]mem.Addr, _ map[string]*dsm.Gate) {
				for i := 0; i < 3; i++ {
					p.Write(v["x"], p.Read(v["x"])+1)
				}
			},
			WantRacy: []string{"x"},
		},
		{
			Name:  "locked-counter",
			Procs: 3,
			Vars:  []string{"x"},
			Worker: func(p *dsm.Proc, v map[string]mem.Addr, _ map[string]*dsm.Gate) {
				for i := 0; i < 3; i++ {
					p.Lock(0)
					p.Write(v["x"], p.Read(v["x"])+1)
					p.Unlock(0)
				}
			},
			WantClean: []string{"x"},
		},
		{
			Name:  "missing-pair-publish",
			Procs: 2,
			Vars:  []string{"data", "flag"},
			Gates: []string{"published"},
			Worker: func(p *dsm.Proc, v map[string]mem.Addr, g map[string]*dsm.Gate) {
				if p.ID() == 0 {
					p.Write(v["data"], 42)
					p.Write(v["flag"], 1) // publish without a release
					g["published"].Open()
				} else {
					p.Wait(g["published"]) // staging only; no DSM acquire
					if p.Read(v["flag"]) != 0 {
						_ = p.Read(v["data"])
					}
				}
			},
			WantRacy: []string{"data", "flag"},
		},
		{
			Name:  "locked-publish",
			Procs: 2,
			Vars:  []string{"data", "flag"},
			Gates: []string{"published"},
			Worker: func(p *dsm.Proc, v map[string]mem.Addr, g map[string]*dsm.Gate) {
				if p.ID() == 0 {
					p.Lock(0)
					p.Write(v["data"], 42)
					p.Write(v["flag"], 1)
					p.Unlock(0)
					g["published"].Open()
				} else {
					p.Wait(g["published"])
					p.Lock(0) // proper acquire pairing
					if p.Read(v["flag"]) != 0 {
						_ = p.Read(v["data"])
					}
					p.Unlock(0)
				}
			},
			WantClean: []string{"data", "flag"},
		},
		{
			Name:  "barrier-phased",
			Procs: 4,
			Vars:  []string{"a", "b", "c", "d"},
			Worker: func(p *dsm.Proc, v map[string]mem.Addr, _ map[string]*dsm.Gate) {
				mine := []string{"a", "b", "c", "d"}[p.ID()]
				p.Write(v[mine], uint64(p.ID()))
				p.Barrier()
				for _, name := range []string{"a", "b", "c", "d"} {
					_ = p.Read(v[name])
				}
			},
			WantClean: []string{"a", "b", "c", "d"},
		},
		{
			Name:  "one-forgot-the-lock",
			Procs: 3,
			Vars:  []string{"x"},
			Gates: []string{"lockersDone"},
			Worker: func(p *dsm.Proc, v map[string]mem.Addr, g map[string]*dsm.Gate) {
				if p.ID() < 2 {
					p.Lock(0)
					p.Write(v["x"], p.Read(v["x"])+1)
					p.Unlock(0)
					if p.ID() == 0 {
						g["lockersDone"].Open()
					}
				} else {
					p.Wait(g["lockersDone"])
					p.Write(v["x"], 99) // no lock: races with both lockers
				}
			},
			WantRacy: []string{"x"},
		},
		{
			Name:  "false-sharing-only",
			Procs: 4,
			Vars:  []string{"w0", "w1", "w2", "w3"},
			Worker: func(p *dsm.Proc, v map[string]mem.Addr, _ map[string]*dsm.Gate) {
				mine := []string{"w0", "w1", "w2", "w3"}[p.ID()]
				for i := 0; i < 4; i++ {
					p.Write(v[mine], uint64(i)) // same page, disjoint words
				}
			},
			WantClean: []string{"w0", "w1", "w2", "w3"},
		},
		{
			Name:  "read-only-sharing",
			Procs: 4,
			Vars:  []string{"table"},
			Worker: func(p *dsm.Proc, v map[string]mem.Addr, _ map[string]*dsm.Gate) {
				if p.ID() == 0 {
					p.Write(v["table"], 7)
				}
				p.Barrier()
				for i := 0; i < 5; i++ {
					_ = p.Read(v["table"])
				}
			},
			WantClean: []string{"table"},
		},
		{
			Name:  "transitive-chain",
			Procs: 3,
			Vars:  []string{"x"},
			Gates: []string{"h0", "h1"},
			Worker: func(p *dsm.Proc, v map[string]mem.Addr, g map[string]*dsm.Gate) {
				// P0 writes x under lock 0; P1 bridges lock 0 → lock 1;
				// P2 reads x under lock 1 only. Ordering is transitive
				// through P1, so no race.
				switch p.ID() {
				case 0:
					p.Lock(0)
					p.Write(v["x"], 1)
					p.Unlock(0)
					g["h0"].Open()
				case 1:
					p.Wait(g["h0"])
					p.Lock(0)
					p.Unlock(0)
					p.Lock(1)
					p.Unlock(1)
					g["h1"].Open()
				case 2:
					p.Wait(g["h1"])
					p.Lock(1)
					_ = p.Read(v["x"])
					p.Unlock(1)
				}
			},
			WantClean: []string{"x"},
		},
		{
			Name:  "wrong-lock",
			Procs: 2,
			Vars:  []string{"x"},
			Gates: []string{"first"},
			Worker: func(p *dsm.Proc, v map[string]mem.Addr, g map[string]*dsm.Gate) {
				// Both sides lock — but different locks, so no ordering.
				if p.ID() == 0 {
					p.Lock(0)
					p.Write(v["x"], 1)
					p.Unlock(0)
					g["first"].Open()
				} else {
					p.Wait(g["first"])
					p.Lock(1)
					p.Write(v["x"], 2)
					p.Unlock(1)
				}
			},
			WantRacy: []string{"x"},
		},
		{
			Name:  "bounded-spin-flag",
			Procs: 2,
			Vars:  []string{"flag", "payload"},
			Gates: []string{"written"},
			Worker: func(p *dsm.Proc, v map[string]mem.Addr, g map[string]*dsm.Gate) {
				if p.ID() == 0 {
					p.Write(v["payload"], 11)
					p.Write(v["flag"], 1)
					g["written"].Open()
				} else {
					p.Wait(g["written"])
					for i := 0; i < 4; i++ { // home-made spin "synchronization"
						if p.Read(v["flag"]) != 0 {
							break
						}
					}
					_ = p.Read(v["payload"])
				}
			},
			// Home-made synchronization is invisible to the system — the
			// paper's §2 point: such programs draw spurious (here: real,
			// system-level) race warnings.
			WantRacy: []string{"flag", "payload"},
		},
		{
			Name:  "later-epoch-race",
			Procs: 2,
			Vars:  []string{"quiet", "noisy"},
			Worker: func(p *dsm.Proc, v map[string]mem.Addr, _ map[string]*dsm.Gate) {
				if p.ID() == 0 {
					p.Write(v["quiet"], 1)
				}
				p.Barrier()
				p.Write(v["noisy"], uint64(p.ID())) // races in epoch 1
				p.Barrier()
			},
			WantRacy:  []string{"noisy"},
			WantClean: []string{"quiet"},
		},
		{
			Name:  "disjoint-locks-disjoint-data",
			Procs: 4,
			Vars:  []string{"evenCtr", "oddCtr"},
			Worker: func(p *dsm.Proc, v map[string]mem.Addr, _ map[string]*dsm.Gate) {
				name := "evenCtr"
				lock := 0
				if p.ID()%2 == 1 {
					name, lock = "oddCtr", 1
				}
				for i := 0; i < 3; i++ {
					p.Lock(lock)
					p.Write(v[name], p.Read(v[name])+1)
					p.Unlock(lock)
				}
			},
			WantClean: []string{"evenCtr", "oddCtr"},
		},
	}
}

// Package hbdet is a classic on-the-fly happens-before race detector in the
// Djit+ style: per-process vector clocks, per-lock clocks, and per-location
// read vectors / last-write epochs, checked at every access.
//
// It plays the role of a reference comparator for the paper's detector: the
// LRC-metadata detector and this one consume the same execution (hbdet via
// an event trace hook in the DSM) and must flag the same set of racy
// addresses. It is also the kind of detector (per-access vector-clock
// checks) whose cost the paper's approach avoids by piggybacking on
// coherence metadata and checking only at barriers.
//
// One precision note: like Djit+, only the most recent write to a location
// is remembered, so when three or more writes race on one address some
// write-write *pairs* go unreported — but the address is always flagged.
// Cross-validation therefore compares racy-address sets.
package hbdet

import (
	"fmt"
	"sort"

	"lrcrace/internal/mem"
)

// Clock is a vector clock over processes.
type Clock []uint32

func (c Clock) copyFrom(o Clock) {
	copy(c, o)
}

func (c Clock) join(o Clock) {
	for i, x := range o {
		if x > c[i] {
			c[i] = x
		}
	}
}

// leq reports c ≤ o pointwise.
func (c Clock) leq(o Clock) bool {
	for i, x := range c {
		if x > o[i] {
			return false
		}
	}
	return true
}

// epoch is a (proc, time) pair — the Djit+ compressed write record.
type epoch struct {
	proc int
	t    uint32
}

// varState is the per-location metadata.
type varState struct {
	lastWrite epoch
	hasWrite  bool
	reads     Clock // last read time per process (sparse would be smaller; plain is fine here)
}

// Race is one detected conflict.
type Race struct {
	Addr      mem.Addr
	PrevProc  int // earlier access
	Proc      int // current access
	PrevWrite bool
	CurWrite  bool
}

func (r Race) String() string {
	k := func(w bool) string {
		if w {
			return "write"
		}
		return "read"
	}
	return fmt.Sprintf("hb race at 0x%x: %s by P%d ~ %s by P%d",
		uint64(r.Addr), k(r.PrevWrite), r.PrevProc, k(r.CurWrite), r.Proc)
}

// Detector is the happens-before reference detector. Its methods implement
// the dsm trace hook, which calls them on the run's one thread; like every
// tracer it takes no lock, so read it after the run.
type Detector struct {
	n      int
	clocks []Clock
	locks  map[int]Clock
	epochs map[int32]Clock // barrier join points
	vars   map[mem.Addr]*varState
	races  []Race
	seen   map[mem.Addr]bool
}

// New returns a detector for n processes.
func New(n int) *Detector {
	d := &Detector{
		n:      n,
		clocks: make([]Clock, n),
		locks:  make(map[int]Clock),
		epochs: make(map[int32]Clock),
		vars:   make(map[mem.Addr]*varState),
		seen:   make(map[mem.Addr]bool),
	}
	for p := range d.clocks {
		d.clocks[p] = make(Clock, n)
		d.clocks[p][p] = 1
	}
	return d
}

func (d *Detector) state(a mem.Addr) *varState {
	vs := d.vars[a]
	if vs == nil {
		vs = &varState{reads: make(Clock, d.n)}
		d.vars[a] = vs
	}
	return vs
}

// Read processes a read of a by proc.
func (d *Detector) Read(proc int, a mem.Addr) {
	vs := d.state(a)
	c := d.clocks[proc]
	if vs.hasWrite && vs.lastWrite.proc != proc && vs.lastWrite.t > c[vs.lastWrite.proc] {
		d.report(Race{Addr: a, PrevProc: vs.lastWrite.proc, Proc: proc, PrevWrite: true, CurWrite: false})
	}
	vs.reads[proc] = c[proc]
}

// Write processes a write of a by proc.
func (d *Detector) Write(proc int, a mem.Addr) {
	vs := d.state(a)
	c := d.clocks[proc]
	if vs.hasWrite && vs.lastWrite.proc != proc && vs.lastWrite.t > c[vs.lastWrite.proc] {
		d.report(Race{Addr: a, PrevProc: vs.lastWrite.proc, Proc: proc, PrevWrite: true, CurWrite: true})
	}
	for q, rt := range vs.reads {
		if q != proc && rt > c[q] {
			d.report(Race{Addr: a, PrevProc: q, Proc: proc, PrevWrite: false, CurWrite: true})
		}
	}
	vs.lastWrite = epoch{proc: proc, t: c[proc]}
	vs.hasWrite = true
}

// Acquire processes a lock acquisition by proc.
func (d *Detector) Acquire(proc, lock int) {
	if lc := d.locks[lock]; lc != nil {
		d.clocks[proc].join(lc)
	}
}

// Release processes a lock release by proc.
func (d *Detector) Release(proc, lock int) {
	lc := d.locks[lock]
	if lc == nil {
		lc = make(Clock, d.n)
		d.locks[lock] = lc
	}
	lc.copyFrom(d.clocks[proc])
	d.clocks[proc][proc]++
}

// BarrierArrive folds proc's clock into the epoch's join point.
func (d *Detector) BarrierArrive(proc int, ep int32) {
	jc := d.epochs[ep]
	if jc == nil {
		jc = make(Clock, d.n)
		d.epochs[ep] = jc
	}
	jc.join(d.clocks[proc])
	d.clocks[proc][proc]++
}

// BarrierDepart gives proc the epoch's join point (all arrivals precede all
// departures, so the join is complete by the time anyone departs).
func (d *Detector) BarrierDepart(proc int, ep int32) {
	if jc := d.epochs[ep]; jc != nil {
		d.clocks[proc].join(jc)
	}
	d.clocks[proc][proc]++
}

func (d *Detector) report(r Race) {
	d.races = append(d.races, r)
	d.seen[r.Addr] = true
}

// Races returns every conflict recorded, in detection order.
func (d *Detector) Races() []Race {
	return append([]Race(nil), d.races...)
}

// RacyAddrs returns the sorted set of addresses involved in any race.
func (d *Detector) RacyAddrs() []mem.Addr {
	out := make([]mem.Addr, 0, len(d.seen))
	for a := range d.seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

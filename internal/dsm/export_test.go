package dsm

import (
	"lrcrace/internal/castore"
	"lrcrace/internal/mem"
	"lrcrace/internal/simnet"
)

// Tee fans one run's events out to several tracers.
type Tee []Tracer

func (t Tee) each(f func(Tracer)) {
	for _, tr := range t {
		f(tr)
	}
}

func (t Tee) Read(p int, a mem.Addr)       { t.each(func(tr Tracer) { tr.Read(p, a) }) }
func (t Tee) Write(p int, a mem.Addr)      { t.each(func(tr Tracer) { tr.Write(p, a) }) }
func (t Tee) Acquire(p, l int)             { t.each(func(tr Tracer) { tr.Acquire(p, l) }) }
func (t Tee) Release(p, l int)             { t.each(func(tr Tracer) { tr.Release(p, l) }) }
func (t Tee) BarrierArrive(p int, e int32) { t.each(func(tr Tracer) { tr.BarrierArrive(p, e) }) }
func (t Tee) BarrierDepart(p int, e int32) { t.each(func(tr Tracer) { tr.BarrierDepart(p, e) }) }

// Frames returns how many pages of p's copy of the segment have a frame.
func (p *Proc) Frames() int { return p.seg.Resident() }

// ChunkStats returns the checkpoint chunk store's accounting.
func (s *System) ChunkStats() castore.Stats { return s.ckpts.Chunks().Stats() }

// CheckpointAllDirty makes every checkpoint of the run deposit every page
// copy, as if the protocol had changed them all. Call it before Run.
func (s *System) CheckpointAllDirty() { s.allDirty = true }

// KeepCheckpoints turns checkpoint retention off: every epoch survives the
// run. Call it before Run.
func (s *System) KeepCheckpoints() { s.keepCkpts = true }

// Checkpoints returns the checkpoints the run holds, by process and epoch.
func (s *System) Checkpoints() map[int]map[int32]ckptEntry { return s.ckpts.byProc }

// CrashFired reports whether the run fired cfg.Crashes[i].
func (s *System) CrashFired(i int) bool { return s.crashFired[i] }

// CorruptionFired reports whether the run fired cfg.Corruption.
func (s *System) CorruptionFired() bool { return s.corruptFired }

// CarriesSublayer reports whether the run's last attempt carried the
// reliability sublayer.
func (s *System) CarriesSublayer() bool { return s.rel != nil }

// UpdatePins reports whether the test run rewrites pinned testdata.
func UpdatePins() bool { return *updatePins }

// SeeDeliveries calls f with each delivery the scheduler hands to a
// handler, with its virtual arrival at the receiver, before the handler
// runs. Call it before Run.
func (s *System) SeeDeliveries(f func(to int, d simnet.Delivery, arrival int64)) {
	s.seeDelivery = func(to int, d simnet.Delivery) { f(to, d, s.procs[to].arrival(d)) }
}

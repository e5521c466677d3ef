//go:build go1.23

// The build constraint raises this file's language version to go1.23, the
// first with the iter package, while the module's go line stays at 1.22. A
// toolchain older than go1.23 leaves the file out, and the package does not
// build without it.

package gofront

import "iter"

// stopSignal is the panic a stopped goroutine unwinds its body with; the
// goroutine's coroutine recovers it in its top frame.
type stopSignal struct{}

// Run executes root as goroutine 0 and schedules until every goroutine has
// exited or the remainder are deadlocked (a deadlock is recorded, not
// fatal: the trace prefix and all closed intervals are still checked, so
// cross-validation covers deadlocking programs too). Each goroutine is a
// coroutine, and Run's loop resumes the one the last scheduling step picked
// until a step finds nothing runnable. Run may be called once.
//
// As it returns, Run stops every coroutine still suspended: a deadlocked
// goroutine unwinds from its blocking call, so its deferred calls run then
// and must not use the Program. A panic in a modeled goroutine stops the
// others the same way and then continues in Run's caller with the same
// value.
//
// A run draws on what finished runs handed back: its detector takes their
// spare record clocks and its goroutines' interval builders their spare
// records, footprints and bitmaps (detector.restock, startG). Once every
// coroutine has stopped, a run that returns hands back in turn its
// builders, its retained records and clocks, and the generators of Rand
// (release); the Result references none of them.
func (p *Program) Run(root func(*G)) *Result {
	if p.ran {
		panic("gofront: Run called twice")
	}
	p.ran = true
	p.det.restock()
	res := p.run(root)
	p.release()
	return res
}

// run is Run up to the hand-back: it schedules root's program to its end
// and stops every coroutine as it returns or panics.
func (p *Program) run(root func(*G)) *Result {
	defer p.stopAll()
	p.startG(p.newG(), nil, root)
	for g := p.pick(); g != nil; g = p.baton {
		p.baton = nil
		g.next()
	}
	p.deadlocked = p.nBlocked > 0
	return p.finish()
}

// release hands back, for later programs, what the finished program drew
// from the package pools or made: its detector's builders, records and
// clocks, and every generator of Rand. No coroutine of the program runs
// any more.
func (p *Program) release() {
	p.det.release()
	for _, r := range p.rands {
		rands.Put(r)
	}
	p.rands, p.rng = nil, nil
}

// stopAll marks the run finished and stops every goroutine's coroutine;
// stopping one that has returned is a no-op.
func (p *Program) stopAll() {
	p.finished = true
	for _, g := range p.gs {
		g.stop()
	}
}

// startG begins goroutine g with the parent's release clock (nil for the
// root) and creates its coroutine, which runs fn from g's first schedule.
func (p *Program) startG(g *G, parentRel vcClock, fn func(*G)) {
	p.det.startG(g.id, parentRel)
	g.next, g.stop = iter.Pull(func(park func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != (stopSignal{}) {
				panic(r) // model code's own panic, for Run's caller
			}
		}()
		g.park = park
		fn(g)
		g.exit()
	})
}

// exit closes the goroutine's final interval, publishes its release clock
// to joiners, and leaves the next pick for Run's loop as the coroutine
// returns. A goroutine that outlives a finished run (its body recovered the
// stop signal) exits without touching the Program.
func (g *G) exit() {
	p := g.p
	if p.finished {
		return
	}
	p.vt += costSync
	g.final = p.det.closeInterval(g.id, true)
	p.emit(OpExit, g.id, g.id, 0, 0, 0)
	for _, j := range g.joiners {
		p.det.join(j.id, g.final)
		p.emit(OpJoin, j.id, g.id, 0, 0, 0)
		p.setState(j, gRunnable)
	}
	g.joiners = nil
	p.setState(g, gDone)
	p.baton = p.pick()
}

// yield is a scheduling point. If the state is still gRunning the
// goroutine stays runnable (a preemption point); ops that block set
// gBlocked first. It picks the next goroutine itself: on picking itself it
// simply returns, otherwise it leaves the pick for Run's loop and suspends
// until it is picked again. A stopped goroutine unwinds instead, and one
// that yields after the run finished unwinds at once.
func (g *G) yield() {
	p := g.p
	if p.finished {
		panic(stopSignal{})
	}
	if g.state == gRunning {
		p.setState(g, gRunnable)
	}
	next := p.pick()
	if next == g {
		return
	}
	p.baton = next
	if !g.park(struct{}{}) {
		panic(stopSignal{})
	}
}

// block parks the goroutine until a peer completes its pending op.
func (g *G) block() {
	g.p.setState(g, gBlocked)
	g.yield()
}

// wake marks a blocked goroutine runnable (its pending op was completed by
// the caller).
func (g *G) wake() {
	g.p.setState(g, gRunnable)
	g.futureLB = nil
}

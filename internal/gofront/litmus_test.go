package gofront

import (
	"fmt"
	"slices"
	"testing"

	"lrcrace/internal/mem"
)

// The litmus table makes GOFRONT.md's edge table executable: one program
// per row, with a race-free and a racy variant, each held to its exact
// report list on every seed.
//
// Most rows take the edge late: the acquirer waits (awaitExit) until the
// releaser has released again — an explicit second release, then its exit
// — before it acquires. A sync object that kept the releaser's own release
// clock instead of a copy would hand the acquirer the releaser's later
// knowledge, ordering the releaser's write of z after the edge before the
// acquirer's read, and the racy variant would come back clean.

// awaitExit yields until t has exited. It is only a scheduling loop, with
// no happens-before edge, so the acquire that follows it comes after every
// release t made without being ordered after them.
func awaitExit(g, t *G) {
	for t.state != gDone {
		g.yield()
	}
}

// pair is a litmus root: it spawns the releaser as goroutine 1 and the
// acquirer as goroutine 2, which gets the releaser's handle, and joins
// both.
func pair(releaser func(*G), acquirer func(g, releaser *G)) func(*G) {
	return func(g *G) {
		r := g.Go(releaser)
		a := g.Go(func(g *G) { acquirer(g, r) })
		g.Join(r)
		g.Join(a)
	}
}

// litmusWords allocates the words every row uses: x, written before the
// edge, z, written after it, and y for a row's second edge. again is an
// extra release by its caller: a send on a private buffered channel, which
// never blocks.
func litmusWords(p *Program) (x, y, z mem.Addr, again func(*G)) {
	x, y, z = p.Alloc("x", 1), p.Alloc("y", 1), p.Alloc("z", 1)
	other := p.NewChan(1)
	return x, y, z, func(g *G) { other.Send(g, 0) }
}

// pick returns z for the racy variant, x for the race-free one.
func pick(racy bool, x, z mem.Addr) mem.Addr {
	if racy {
		return z
	}
	return x
}

// litmusRows are the programs, one per edge; prog builds the racy or the
// race-free variant, and racy is the racy variant's report list as
// reportKey renders it (the race-free variant reports nothing).
var litmusRows = []struct {
	edge string
	prog func(p *Program, racy bool) func(*G)
	racy []string
}{{
	edge: "go statement",
	prog: func(p *Program, racy bool) func(*G) {
		x, _, z, _ := litmusWords(p)
		return func(g *G) {
			g.Store(x, 1)
			c := g.Go(func(g *G) { g.Load(pick(racy, x, z)) })
			g.Store(z, 1)
			g.Join(c)
		}
	},
	racy: []string{"z: σ0^2 write ~ σ1^1 read"},
}, {
	edge: "exit and Join",
	prog: func(p *Program, racy bool) func(*G) {
		x, _, _, _ := litmusWords(p)
		return func(g *G) {
			c := g.Go(func(g *G) { g.Store(x, 1) })
			if racy {
				g.Load(x)
			}
			g.Join(c)
			g.Load(x)
		}
	},
	racy: []string{"x: σ0^2 read ~ σ1^1 write"},
}, {
	edge: "unbuffered channel (capacity 0), both directions",
	prog: func(p *Program, racy bool) func(*G) {
		x, y, z, _ := litmusWords(p)
		ch := p.NewChan(0)
		return pair(func(g *G) {
			g.Store(x, 1)
			ch.Send(g, 1)
			g.Load(y) // the receiver's write before its receive
			g.Store(z, 1)
		}, func(g, _ *G) {
			g.Store(y, 1)
			ch.Recv(g)
			g.Load(pick(racy, x, z))
		})
	},
	racy: []string{"z: σ1^2 write ~ σ2^2 read"},
}, {
	edge: "buffered channel (capacity 1): send k before receive k, received late",
	prog: func(p *Program, racy bool) func(*G) {
		x, _, z, again := litmusWords(p)
		ch := p.NewChan(1)
		return pair(func(g *G) {
			g.Store(x, 1)
			ch.Send(g, 1)
			g.Store(z, 1)
			again(g)
		}, func(g, r *G) {
			awaitExit(g, r)
			ch.Recv(g)
			g.Load(pick(racy, x, z))
		})
	},
	racy: []string{"z: σ1^2 write ~ σ2^2 read"},
}, {
	// The C-th send of a capacity-C channel waits for no receive: only
	// send C+1 joins receive 1. The race-free variant sends once more.
	edge: "buffered channel (capacity 2): the C-th send",
	prog: func(p *Program, racy bool) func(*G) {
		_, y, _, _ := litmusWords(p)
		ch := p.NewChan(2)
		return pair(func(g *G) {
			g.Store(y, 1)
			ch.Recv(g)
		}, func(g, _ *G) {
			ch.Send(g, 1)
			ch.Send(g, 2)
			if !racy {
				ch.Send(g, 3)
			}
			g.Load(y)
		})
	},
	racy: []string{"y: σ1^1 write ~ σ2^3 read"},
}, {
	// Send C+1 joins receive 1's backpressure clock after the receiver
	// has released again.
	edge: "buffered channel (capacity 2): receive k before send k+C, sent late",
	prog: func(p *Program, racy bool) func(*G) {
		x, _, z, again := litmusWords(p)
		ch := p.NewChan(2)
		return pair(func(g *G) {
			g.Store(x, 1)
			ch.Recv(g)
			g.Store(z, 1)
			again(g)
		}, func(g, r *G) {
			ch.Send(g, 1)
			ch.Send(g, 2)
			awaitExit(g, r)
			ch.Send(g, 3)
			g.Load(pick(racy, x, z))
		})
	},
	racy: []string{"z: σ1^2 write ~ σ2^4 read"},
}, {
	edge: "close before a receive of the zero value, received late",
	prog: func(p *Program, racy bool) func(*G) {
		x, _, z, again := litmusWords(p)
		ch := p.NewChan(0)
		return pair(func(g *G) {
			g.Store(x, 1)
			ch.Close(g)
			g.Store(z, 1)
			again(g)
		}, func(g, r *G) {
			awaitExit(g, r)
			if _, ok := ch.Recv(g); ok {
				panic("receive on a closed channel got a value")
			}
			g.Load(pick(racy, x, z))
		})
	},
	racy: []string{"z: σ1^2 write ~ σ2^2 read"},
}, {
	edge: "Mutex: Unlock before the next Lock, locked late",
	prog: func(p *Program, racy bool) func(*G) {
		x, _, z, again := litmusWords(p)
		mu := p.NewMutex()
		return pair(func(g *G) {
			mu.Lock(g)
			g.Store(x, 1)
			mu.Unlock(g)
			g.Store(z, 1)
			again(g)
		}, func(g, r *G) {
			awaitExit(g, r)
			mu.Lock(g)
			g.Load(pick(racy, x, z))
			mu.Unlock(g)
		})
	},
	racy: []string{"z: σ1^3 write ~ σ2^2 read"},
}, {
	edge: "RWMutex: Unlock before the next RLock, read-locked late",
	prog: func(p *Program, racy bool) func(*G) {
		x, _, z, again := litmusWords(p)
		rw := p.NewRWMutex()
		return pair(func(g *G) {
			rw.Lock(g)
			g.Store(x, 1)
			rw.Unlock(g)
			g.Store(z, 1)
			again(g)
		}, func(g, r *G) {
			awaitExit(g, r)
			rw.RLock(g)
			g.Load(pick(racy, x, z))
			rw.RUnlock(g)
		})
	},
	racy: []string{"z: σ1^3 write ~ σ2^2 read"},
}, {
	edge: "RWMutex: RUnlock before the next Lock, locked late",
	prog: func(p *Program, racy bool) func(*G) {
		x, _, z, again := litmusWords(p)
		rw := p.NewRWMutex()
		return pair(func(g *G) {
			rw.RLock(g)
			g.Load(x)
			rw.RUnlock(g)
			g.Load(z)
			again(g)
		}, func(g, r *G) {
			awaitExit(g, r)
			rw.Lock(g)
			g.Store(pick(racy, x, z), 1)
			rw.Unlock(g)
		})
	},
	racy: []string{"z: σ1^3 read ~ σ2^2 write"},
}, {
	edge: "WaitGroup: Done before Wait, waited late",
	prog: func(p *Program, racy bool) func(*G) {
		x, _, z, again := litmusWords(p)
		wg := p.NewWaitGroup()
		body := pair(func(g *G) {
			g.Store(x, 1)
			wg.Done(g)
			g.Store(z, 1)
			again(g)
		}, func(g, r *G) {
			awaitExit(g, r)
			wg.Wait(g)
			g.Load(pick(racy, x, z))
		})
		return func(g *G) {
			wg.Add(g, 1)
			body(g)
		}
	},
	racy: []string{"z: σ1^2 write ~ σ2^2 read"},
}}

// reportKey renders a deduplicated report with its word's symbol and its
// endpoints in interval order, so the key does not depend on which of the
// two intervals closed first.
func reportKey(res *Result, i int) string {
	r := res.Races[i]
	a, b := r.A, r.B
	if b.Interval.Proc < a.Interval.Proc || b.Interval.Proc == a.Interval.Proc && b.Interval.Index < a.Interval.Index {
		a, b = b, a
	}
	name, _ := res.SymbolAt(r.Addr)
	return fmt.Sprintf("%s: %v %s ~ %v %s", name, a.Interval, a.Kind, b.Interval, b.Kind)
}

// TestLitmusEdges runs every row of the litmus table, both variants, over
// eight seeds: the race-free variant reports nothing and the racy one
// exactly its list, and hbdet agrees on the racy addresses (runProg).
func TestLitmusEdges(t *testing.T) {
	for _, row := range litmusRows {
		for _, racy := range []bool{false, true} {
			var want []string
			if racy {
				want = row.racy
			}
			t.Run(fmt.Sprintf("%s/racy=%v", row.edge, racy), func(t *testing.T) {
				for seed := int64(0); seed < 8; seed++ {
					res := runProg(t, seed, func(p *Program) func(*G) { return row.prog(p, racy) })
					var got []string
					for i := range res.Races {
						got = append(got, reportKey(res, i))
					}
					if !slices.Equal(got, want) {
						t.Errorf("seed %d: reports %q, want %q", seed, got, want)
					}
				}
			})
		}
	}
}

package gofront

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"lrcrace/internal/mem"
	"lrcrace/internal/vc"
)

// runProg runs body under a fresh program and cross-validates the gofront
// race set against the hbdet replay of the same trace, returning the
// agreed racy-address set.
func runProg(t *testing.T, seed int64, setup func(p *Program) func(*G)) *Result {
	t.Helper()
	p := New(Config{Seed: seed, Detect: true, MaxGs: 16})
	root := setup(p)
	res := p.Run(root)
	hb := RacyAddrsHB(res.Trace(), res.NumGs)
	if !addrsEqual(res.RacyAddrs, hb) {
		t.Fatalf("cross-validation mismatch:\n  gofront: %v\n  hbdet:   %v", res.RacyAddrs, hb)
	}
	return res
}

func addrsEqual(a, b []mem.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func wantRacy(t *testing.T, res *Result, want ...mem.Addr) {
	t.Helper()
	if !addrsEqual(res.RacyAddrs, want) {
		t.Fatalf("racy addrs = %v, want %v", res.RacyAddrs, want)
	}
}

// Two goroutines write the same word with no synchronization: the canonical
// racy program. The spawn edges order each child after the root, but not
// the children against each other.
func TestUnsyncedWritesRace(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		var x mem.Addr
		res := runProg(t, seed, func(p *Program) func(*G) {
			x = p.Alloc("x", 1)
			return func(g *G) {
				a := g.Go(func(g *G) { g.Store(x, 1) })
				b := g.Go(func(g *G) { g.Store(x, 2) })
				g.Join(a)
				g.Join(b)
			}
		})
		wantRacy(t, res, x)
		if len(res.Races) == 0 || !res.Races[0].WriteWrite() {
			t.Fatalf("want a write-write report, got %v", res.Races)
		}
	}
}

// The same program with the accesses under one mutex is clean.
func TestMutexOrdersWrites(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		res := runProg(t, seed, func(p *Program) func(*G) {
			x := p.Alloc("x", 1)
			mu := p.NewMutex()
			worker := func(g *G) {
				mu.Lock(g)
				g.Store(x, g.Load(x)+1)
				mu.Unlock(g)
			}
			return func(g *G) {
				a := g.Go(worker)
				b := g.Go(worker)
				g.Join(a)
				g.Join(b)
			}
		})
		wantRacy(t, res)
	}
}

// Unbuffered channel rendezvous orders the producer's write before the
// consumer's read — and the consumer's pre-send accesses before the
// producer's post-send accesses (the back edge).
func TestRendezvousOrdersBothWays(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		res := runProg(t, seed, func(p *Program) func(*G) {
			x := p.Alloc("x", 1)
			y := p.Alloc("y", 1)
			ch := p.NewChan(0)
			return func(g *G) {
				c := g.Go(func(g *G) {
					g.Store(y, 7) // before the recv: ordered before sender's post-send code
					if v, ok := ch.Recv(g); !ok || v != 42 {
						panic("bad recv")
					}
					_ = g.Load(x)
				})
				g.Store(x, 1)
				ch.Send(g, 42)
				_ = g.Load(y) // after the send completes: sees the consumer's y store
				g.Join(c)
			}
		})
		wantRacy(t, res)
	}
}

// Without the channel, the same accesses race.
func TestNoChannelRaces(t *testing.T) {
	var x mem.Addr
	res := runProg(t, 3, func(p *Program) func(*G) {
		x = p.Alloc("x", 1)
		return func(g *G) {
			c := g.Go(func(g *G) { _ = g.Load(x) })
			g.Store(x, 1)
			g.Join(c)
		}
	})
	wantRacy(t, res, x)
}

// Buffered channel backpressure: on a capacity-1 channel, receive k
// happens before send k+1 completes. The consumer's store is therefore
// ordered before the producer's post-second-send load — but only when the
// second send exists.
func TestBufferedBackpressure(t *testing.T) {
	build := func(secondSend bool) func(p *Program) (func(*G), mem.Addr) {
		return func(p *Program) (func(*G), mem.Addr) {
			y := p.Alloc("y", 1)
			ch := p.NewChan(1)
			root := func(g *G) {
				c := g.Go(func(g *G) {
					g.Store(y, 9)
					if _, ok := ch.Recv(g); !ok {
						panic("bad recv")
					}
					if secondSend {
						if _, ok := ch.Recv(g); !ok {
							panic("bad recv2")
						}
					}
				})
				ch.Send(g, 1)
				if secondSend {
					ch.Send(g, 2)
				}
				_ = g.Load(y)
				g.Join(c)
			}
			return root, y
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		var y mem.Addr
		res := runProg(t, seed, func(p *Program) func(*G) {
			root, addr := build(true)(p)
			y = addr
			return root
		})
		_ = y
		wantRacy(t, res) // second send ordered after the first recv: clean
	}
	// With a single send the store y (before recv) and load y (after send 1)
	// are unordered: send 1 needs no backpressure edge on a cap-1 channel.
	sawRace := false
	for seed := int64(0); seed < 8; seed++ {
		var y mem.Addr
		res := runProg(t, seed, func(p *Program) func(*G) {
			root, addr := build(false)(p)
			y = addr
			return root
		})
		if len(res.RacyAddrs) > 0 {
			wantRacy(t, res, y)
			sawRace = true
		}
	}
	if !sawRace {
		t.Fatal("single-send variant never raced across seeds")
	}
}

// Channel close edge: a store before close is visible to the receive of
// the zero value.
func TestCloseOrdersReceiveOfZero(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		res := runProg(t, seed, func(p *Program) func(*G) {
			x := p.Alloc("x", 1)
			ch := p.NewChan(0)
			return func(g *G) {
				c := g.Go(func(g *G) {
					if _, ok := ch.Recv(g); ok {
						panic("want closed")
					}
					_ = g.Load(x)
				})
				g.Store(x, 5)
				ch.Close(g)
				g.Join(c)
			}
		})
		wantRacy(t, res)
	}
}

// WaitGroup: worker stores are ordered before the Wait-ing root's loads.
func TestWaitGroupOrdersWorkers(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		res := runProg(t, seed, func(p *Program) func(*G) {
			xs := p.Alloc("xs", 4)
			wg := p.NewWaitGroup()
			return func(g *G) {
				wg.Add(g, 4)
				for i := 0; i < 4; i++ {
					i := i
					g.Go(func(g *G) {
						g.Store(xs+mem.Addr(i*mem.WordSize), uint64(i))
						wg.Done(g)
					})
				}
				wg.Wait(g)
				for i := 0; i < 4; i++ {
					_ = g.Load(xs + mem.Addr(i*mem.WordSize))
				}
			}
		})
		wantRacy(t, res)
	}
}

// RWMutex: reader/reader sharing is clean, and the writer is ordered
// against both directions. Removing the reader lock makes it race.
func TestRWMutex(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		res := runProg(t, seed, func(p *Program) func(*G) {
			x := p.Alloc("x", 1)
			rw := p.NewRWMutex()
			reader := func(g *G) {
				rw.RLock(g)
				_ = g.Load(x)
				rw.RUnlock(g)
			}
			return func(g *G) {
				r1 := g.Go(reader)
				r2 := g.Go(reader)
				w := g.Go(func(g *G) {
					rw.Lock(g)
					g.Store(x, 1)
					rw.Unlock(g)
				})
				g.Join(r1)
				g.Join(r2)
				g.Join(w)
			}
		})
		wantRacy(t, res)
	}

	// Unlocked reader: racy.
	sawRace := false
	for seed := int64(0); seed < 8; seed++ {
		var x mem.Addr
		res := runProg(t, seed, func(p *Program) func(*G) {
			x = p.Alloc("x", 1)
			rw := p.NewRWMutex()
			return func(g *G) {
				r := g.Go(func(g *G) { _ = g.Load(x) })
				w := g.Go(func(g *G) {
					rw.Lock(g)
					g.Store(x, 1)
					rw.Unlock(g)
				})
				g.Join(r)
				g.Join(w)
			}
		})
		if len(res.RacyAddrs) > 0 {
			wantRacy(t, res, x)
			sawRace = true
		}
	}
	if !sawRace {
		t.Fatal("unlocked-reader variant never raced across seeds")
	}
}

// Transitive ordering across three goroutines through two channels.
func TestTransitiveChannelChain(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		res := runProg(t, seed, func(p *Program) func(*G) {
			x := p.Alloc("x", 1)
			ab := p.NewChan(0)
			bc := p.NewChan(0)
			return func(g *G) {
				b := g.Go(func(g *G) {
					if _, ok := ab.Recv(g); !ok {
						panic("recv ab")
					}
					bc.Send(g, 1)
				})
				c := g.Go(func(g *G) {
					if _, ok := bc.Recv(g); !ok {
						panic("recv bc")
					}
					_ = g.Load(x)
				})
				g.Store(x, 1)
				ab.Send(g, 1)
				g.Join(b)
				g.Join(c)
			}
		})
		wantRacy(t, res)
	}
}

// A deadlocked program still reports the races of its executed prefix and
// still cross-validates, and its parked goroutines end once Run returns —
// fuzzing runs thousands of deadlocking programs per second.
func TestDeadlockedProgramStillChecks(t *testing.T) {
	before := runtime.NumGoroutine()
	var x mem.Addr
	res := runProg(t, 1, func(p *Program) func(*G) {
		x = p.Alloc("x", 1)
		ch := p.NewChan(0)
		return func(g *G) {
			c := g.Go(func(g *G) {
				g.Store(x, 1)
				ch.Recv(g) // never paired: deadlocks
			})
			g.Store(x, 2)
			g.Join(c) // c never exits
		}
	})
	if !res.Deadlocked {
		t.Fatal("want Deadlocked")
	}
	wantRacy(t, res, x)
	waitGoroutines(t, before, "a deadlocked run")
}

// waitGoroutines fails t unless the process's goroutine count falls back to
// before within a few seconds. The count is polled, not read once, so that
// a goroutine some other test left winding down does not fail this one.
func waitGoroutines(t *testing.T, before int, after string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after %s, %d before", n, after, before)
	}
}

// deadlockBody spawns three goroutines that block on a receive nobody
// pairs, and blocks the root on it too. With recovers, each spawned
// goroutine recovers whatever unwinds it, the stop signal included.
func deadlockBody(recovers bool) func(p *Program) func(*G) {
	return func(p *Program) func(*G) {
		ch := p.NewChan(0)
		x := p.Alloc("x", 1)
		return func(g *G) {
			for i := 0; i < 3; i++ {
				g.Go(func(g *G) {
					if recovers {
						defer func() { recover() }()
					}
					g.Store(x, uint64(i))
					ch.Recv(g) // never paired
				})
			}
			ch.Recv(g)
		}
	}
}

// Every goroutine a run starts has ended once Run returns, whether the
// program finished, deadlocked, panicked, or never switched to another
// goroutine. A blocked goroutine that recovers the stop signal exits
// without touching the Program, so the Program still matches its Result and
// the run matches the same program without the recover. The ready set and its counts agree
// with the final states.
func TestRunLifecycle(t *testing.T) {
	const selfYields = 50
	progs := []struct {
		name       string
		deadlocked bool
		steps      int64  // scheduling steps the run must take; 0: unchecked
		panics     string // the value Run must panic with; "": none
		body       func(p *Program) func(*G)
	}{
		{"clean", false, 0, "", func(p *Program) func(*G) {
			x := p.Alloc("x", 1)
			mu := p.NewMutex()
			ch := p.NewChan(1)
			return func(g *G) {
				var ws []*G
				for i := 0; i < 4; i++ {
					ws = append(ws, g.Go(func(g *G) {
						mu.Lock(g)
						g.Store(x, g.Load(x)+1)
						mu.Unlock(g)
						ch.Send(g, 1)
					}))
				}
				for range ws {
					ch.Recv(g)
				}
				for _, w := range ws {
					g.Join(w)
				}
			}
		}},
		{"deadlocked", true, 0, "", deadlockBody(false)},
		{"deadlocked-recover", true, 0, "", deadlockBody(true)},
		// One goroutine blocks with a deferred recover, another may not
		// have run yet, and the root panics: every goroutine is stopped, and
		// the panic still reaches Run's caller.
		{"panics", false, 0, "model bug", func(p *Program) func(*G) {
			ch := p.NewChan(0)
			y := p.Alloc("y", 1)
			return func(g *G) {
				g.Go(func(g *G) {
					defer func() { recover() }()
					ch.Recv(g)
				})
				g.Go(func(g *G) { g.Store(y, 1) })
				panic("model bug")
			}
		}},
		// One goroutine: every yield picks the yielder itself, so the run
		// makes no coroutine switch between its first schedule and its exit.
		// It takes one step per yield plus the first.
		{"self-pick", false, selfYields + 1, "", func(p *Program) func(*G) {
			x := p.Alloc("x", 1)
			mu := p.NewMutex()
			return func(g *G) {
				for i := 0; i < selfYields/2; i++ {
					mu.Lock(g)
					g.Store(x, uint64(i))
					mu.Unlock(g)
				}
			}
		}},
	}
	results := map[string]*Result{}
	for _, pr := range progs {
		t.Run(pr.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			p := New(Config{Seed: 3, Detect: true})
			var res *Result
			func() {
				defer func() {
					if r := recover(); r != pr.panics && (r != nil || pr.panics != "") {
						t.Fatalf("Run panicked with %v, want %q", r, pr.panics)
					}
				}()
				res = p.Run(pr.body(p))
			}()
			waitGoroutines(t, before, "Run returned")
			if pr.panics != "" {
				return
			}
			results[pr.name] = res
			if res.Deadlocked != pr.deadlocked {
				t.Fatalf("Deadlocked = %v, want %v", res.Deadlocked, pr.deadlocked)
			}
			if hb := RacyAddrsHB(res.Trace(), res.NumGs); !addrsEqual(res.RacyAddrs, hb) {
				t.Fatalf("cross-validation mismatch: gofront %v, hbdet %v", res.RacyAddrs, hb)
			}
			if p.vt != res.VirtualNS || p.stats != res.Stats {
				t.Fatalf("the Program moved after its Result: %d virtual ns, %+v; Result %d, %+v", p.vt, p.stats, res.VirtualNS, res.Stats)
			}
			blocked := 0
			for _, g := range p.gs {
				if g.state == gBlocked {
					blocked++
				} else if g.state != gDone {
					t.Fatalf("g%d ended in state %d", g.id, g.state)
				}
			}
			if p.nReady != 0 || p.nBlocked != blocked || p.ready[0] != 0 {
				t.Fatalf("ready set %b, %d ready, %d blocked; want empty, 0, %d", p.ready, p.nReady, p.nBlocked, blocked)
			}
			if pr.steps != 0 && res.Stats.SchedSteps != pr.steps {
				t.Fatalf("%d scheduling steps, want %d", res.Stats.SchedSteps, pr.steps)
			}
		})
	}
	plain, recovered := results["deadlocked"], results["deadlocked-recover"]
	if plain == nil || recovered == nil {
		return // one was filtered out or has failed already
	}
	if !reflect.DeepEqual(plain.Trace(), recovered.Trace()) || plain.Stats != recovered.Stats || plain.VirtualNS != recovered.VirtualNS {
		t.Fatal("a deferred recover in a blocked goroutine changed the run")
	}
}

// A stopped goroutine whose deferred call hands its mutex on, and so
// yields, takes no scheduling step: yield refuses a finished run, and the
// goroutine it woke is still stopped.
func TestStoppedGoroutineTakesNoStep(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(Config{Seed: 1, Detect: true})
	mu := p.NewMutex()
	ch := p.NewChan(0)
	res := p.Run(func(g *G) {
		mu.Lock(g)
		g.Go(func(g *G) { mu.Lock(g) }) // queues behind the root
		defer func() {
			recover()
			mu.Unlock(g)
		}()
		ch.Recv(g) // never paired
	})
	if !res.Deadlocked {
		t.Fatal("want Deadlocked")
	}
	if p.stats.SchedSteps != res.Stats.SchedSteps {
		t.Fatalf("%d scheduling steps after Run returned, %d in its Result", p.stats.SchedSteps, res.Stats.SchedSteps)
	}
	waitGoroutines(t, before, "Run returned")
}

// A panic in a modeled goroutine reaches Run's caller with its own value,
// whether the goroutine panicking is the root or not and whatever the other
// goroutines are doing, and every goroutine the run started has ended.
func TestModelPanicReachesCaller(t *testing.T) {
	progs := []struct {
		name, want string
		body       func(p *Program) func(*G)
	}{
		{"send on closed channel", "gofront: send on closed channel 0", func(p *Program) func(*G) {
			ch := p.NewChan(1)
			return func(g *G) {
				ch.Close(g)
				w := g.Go(func(g *G) { ch.Send(g, 1) })
				g.Join(w)
			}
		}},
		{"unlock by non-holder", "gofront: unlock of mutex 0 by non-holder g1", func(p *Program) func(*G) {
			mu := p.NewMutex()
			ch := p.NewChan(0)
			return func(g *G) {
				mu.Lock(g)
				g.Go(func(g *G) { mu.Unlock(g) })
				ch.Recv(g) // the root blocks while g1 panics
			}
		}},
		{"goroutine limit", "gofront: goroutine limit MaxGs=16 exceeded", func(p *Program) func(*G) {
			ch := p.NewChan(0)
			return func(g *G) {
				for {
					g.Go(func(g *G) { ch.Recv(g) })
				}
			}
		}},
	}
	for _, pr := range progs {
		t.Run(pr.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			p := New(Config{Seed: 5, Detect: true})
			func() {
				defer func() {
					if r := recover(); r != pr.want {
						t.Fatalf("Run panicked with %v, want %q", r, pr.want)
					}
				}()
				p.Run(pr.body(p))
			}()
			waitGoroutines(t, before, "Run panicked")
		})
	}
}

// With more than 64 goroutines the ready set spans two words: the
// scheduler still draws over every runnable goroutine, and the detector
// still agrees with the hbdet replay.
func TestReadySetSpansWords(t *testing.T) {
	const maxGs = 70
	for seed := int64(0); seed < 8; seed++ {
		p := New(Config{Seed: seed, Detect: true, MaxGs: maxGs})
		xs := p.Alloc("xs", maxGs)
		shared := p.Alloc("shared", 1)
		counter := p.Alloc("counter", 1)
		mu := p.NewMutex()
		wg := p.NewWaitGroup()
		res := p.Run(func(g *G) {
			wg.Add(g, maxGs-1)
			for i := 1; i < maxGs; i++ {
				i := i
				g.Go(func(g *G) {
					g.Store(xs+mem.Addr(i*mem.WordSize), uint64(i))
					mu.Lock(g)
					g.Store(counter, g.Load(counter)+1)
					mu.Unlock(g)
					if i >= 62 { // unsynchronized, on both sides of the word boundary
						g.Store(shared, uint64(i))
					}
					wg.Done(g)
				})
			}
			wg.Wait(g)
			_ = g.Load(counter)
		})
		if len(p.ready) != 2 || res.NumGs != maxGs || res.Deadlocked {
			t.Fatalf("seed %d: %d ready words, %d goroutines, deadlocked %v", seed, len(p.ready), res.NumGs, res.Deadlocked)
		}
		if hb := RacyAddrsHB(res.Trace(), res.NumGs); !addrsEqual(res.RacyAddrs, hb) {
			t.Fatalf("seed %d: cross-validation mismatch: gofront %v, hbdet %v", seed, res.RacyAddrs, hb)
		}
		wantRacy(t, res, shared)
	}
}

// Same seed, same program: byte-identical trace and race set. Different
// seeds may schedule differently but must stay internally consistent.
func TestDeterministicPerSeed(t *testing.T) {
	build := func(seed int64) *Result {
		p := New(Config{Seed: seed, Detect: true, MaxGs: 8})
		x := p.Alloc("x", 1)
		mu := p.NewMutex()
		return p.Run(func(g *G) {
			a := g.Go(func(g *G) { g.Store(x, 1) })
			b := g.Go(func(g *G) {
				mu.Lock(g)
				g.Store(x, 2)
				mu.Unlock(g)
			})
			g.Join(a)
			g.Join(b)
		})
	}
	r1, r2 := build(7), build(7)
	if !reflect.DeepEqual(r1.Trace(), r2.Trace()) {
		t.Fatal("same seed produced different traces")
	}
	if fmt.Sprint(r1.Races) != fmt.Sprint(r2.Races) {
		t.Fatalf("same seed produced different races:\n%v\n%v", r1.Races, r2.Races)
	}
}

// The knowledge-horizon GC retires checked records on a long well-locked
// run without losing the planted race at the end.
func TestHorizonGC(t *testing.T) {
	p := New(Config{Seed: 1, Detect: true, MaxGs: 8})
	x := p.Alloc("x", 1)
	y := p.Alloc("y", 1)
	mu := p.NewMutex()
	res := p.Run(func(g *G) {
		worker := func(g *G) {
			for i := 0; i < 200; i++ {
				mu.Lock(g)
				g.Store(x, g.Load(x)+1)
				mu.Unlock(g)
			}
			g.Store(y, 1) // unsynchronized: the planted race
		}
		a := g.Go(worker)
		b := g.Go(worker)
		g.Join(a)
		g.Join(b)
	})
	if res.Stats.RecordsGCed == 0 {
		t.Fatal("horizon GC never retired a record")
	}
	wantRacy(t, res, y)
	hb := RacyAddrsHB(res.Trace(), res.NumGs)
	if !addrsEqual(res.RacyAddrs, hb) {
		t.Fatalf("cross-validation mismatch after GC: %v vs %v", res.RacyAddrs, hb)
	}
}

// A mutex's release clock outlives the record of the interval it released.
// The root's write of x under mu is record R, and mu keeps a copy of the
// release clock, equal to R's clock. The horizon GC retires R once the
// child has been spawned, and the root's later closes reuse R's record and
// clock. The child takes mu only after a long loop, by which time both are
// reused; had mu kept R's clock rather than its own copy, the child would
// join the root's later knowledge and miss the race between the root's
// unlocked write of x and its own read.
func TestRecycledRecordKeepsReleaseClock(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		p := New(Config{Seed: seed, Detect: true, MaxGs: 2})
		x := p.Alloc("x", 1)
		y := p.Alloc("y", 1)
		mu, other, own := p.NewMutex(), p.NewMutex(), p.NewMutex()
		res := p.Run(func(g *G) {
			mu.Lock(g)
			g.Store(x, 1)
			mu.Unlock(g)
			g.Go(func(g *G) {
				for i := 0; i < 1000; i++ {
					own.Lock(g)
					own.Unlock(g)
				}
				mu.Lock(g)
				g.Load(x)
				mu.Unlock(g)
			})
			g.Store(x, 2) // unsynchronized: races with the child's read
			for i := 0; i < 100; i++ {
				other.Lock(g)
				g.Store(y, uint64(i))
				other.Unlock(g)
			}
		})
		if res.Stats.RecordsGCed == 0 {
			t.Fatalf("seed %d: horizon GC never retired a record", seed)
		}
		wantRacy(t, res, x)
		if hb := RacyAddrsHB(res.Trace(), res.NumGs); !addrsEqual(res.RacyAddrs, hb) {
			t.Fatalf("seed %d: cross-validation mismatch: %v vs %v", seed, res.RacyAddrs, hb)
		}
	}
}

// Symbol resolution maps racy addresses back to Alloc names.
func TestSymbolAt(t *testing.T) {
	p := New(Config{Seed: 0, Detect: true})
	_ = p.Alloc("a", 1)
	arr := p.Alloc("arr", 4)
	res := p.Run(func(g *G) {})
	if name, ok := res.SymbolAt(arr + 2*mem.WordSize); !ok || name != "arr[2]" {
		t.Fatalf("SymbolAt = %q, %v", name, ok)
	}
	if _, ok := res.SymbolAt(arr + 100*mem.WordSize); ok {
		t.Fatal("out-of-range address resolved")
	}
}

// Detection off still records the trace (for replay, in a test binary) but
// no intervals.
func TestDetectOff(t *testing.T) {
	p := New(Config{Seed: 0, Detect: false})
	x := p.Alloc("x", 1)
	res := p.Run(func(g *G) {
		c := g.Go(func(g *G) { g.Store(x, 1) })
		g.Store(x, 2)
		g.Join(c)
	})
	if len(res.Races) != 0 || res.Stats.Intervals != 0 {
		t.Fatalf("detect-off run produced races/intervals: %+v", res.Stats)
	}
	if hb := RacyAddrsHB(res.Trace(), res.NumGs); len(hb) != 1 || hb[0] != x {
		t.Fatalf("replay on detect-off trace = %v, want [%v]", hb, x)
	}
}

// Closing an interval allocates a fixed count however many concurrent
// records it is checked against: the per-pair path — vector compare, page
// filter, check entries, bitmap compare — reuses detector scratch and reads
// bitmaps off the records, so a close that reports nothing allocates only
// what the close itself needs.
func TestCloseAllocsIndependentOfRetained(t *testing.T) {
	closeAllocs := func(retained int) float64 {
		p := New(Config{MaxGs: retained + 1, Detect: true})
		d := p.det
		for g := 0; g <= retained; g++ {
			d.startG(g, nil)
		}
		// Goroutine g writes word g of page 0: every record overlaps the
		// probe's page, none its word.
		for g := 1; g <= retained; g++ {
			d.noteWrite(g, mem.Addr(g*mem.WordSize))
			d.closeInterval(g, true)
		}
		base := len(d.records)
		entries := p.stats.CheckEntries
		// Three measurements of 50 closes, each after one warm-up close.
		allocs := LeastAllocs(50, func() {
			d.noteRead(0, 0)
			d.closeInterval(0, true)
			d.records = d.records[:base]
		})
		if got := p.stats.CheckEntries - entries; got != 3*51*retained {
			t.Fatalf("%d retained: %d check entries over 3×51 closes, want %d", retained, got, 3*51*retained)
		}
		if len(d.reports) != 0 {
			t.Fatalf("%d retained: %d reports, want none", retained, len(d.reports))
		}
		return allocs
	}
	if few, many := closeAllocs(2), closeAllocs(32); few != many {
		t.Fatalf("a close allocates %v times against 2 retained records but %v against 32", few, many)
	}
}

// TestSteadyStateCloseAllocs: once the horizon GC has handed retired
// records and their clocks back, a close allocates nothing. The release
// clock is the goroutine's own buffer, written in place; a recorded
// interval's record, clock, footprint, bitmaps and notice lists are
// recycled ones.
func TestSteadyStateCloseAllocs(t *testing.T) {
	p := New(Config{MaxGs: 2, Detect: true})
	g := p.newG() // live, so the horizon GC retires what g closes
	d := p.det
	d.startG(g.id, nil)
	recorded := func(release bool) func() {
		return func() {
			d.noteWrite(g.id, 8)
			d.noteRead(g.id, pageBytes+16)
			d.closeInterval(g.id, release)
		}
	}
	for i := 0; i < 4*gcEvery; i++ {
		recorded(true)()
	}
	if p.stats.RecordsGCed == 0 {
		t.Fatal("warm-up retired no record")
	}
	for _, c := range []struct {
		name  string
		close func()
	}{
		{"acquire, empty interval", func() { d.closeInterval(g.id, false) }},
		{"release, empty interval", func() { d.closeInterval(g.id, true) }},
		{"acquire, recorded interval", recorded(false)},
		{"release, recorded interval", recorded(true)},
	} {
		// One run of many closes, so that the GC sweeps among them count
		// too: AllocsPerRun rounds its per-run average down.
		const closes = 4 * gcEvery
		got := LeastAllocs(1, func() {
			for range closes {
				c.close()
			}
		})
		if got != 0 {
			t.Errorf("%s: %v allocations over %d closes, want 0", c.name, got, closes)
		}
	}
}

// TestSteadyStateSyncOpAllocs: once a program has warmed up, a sync op
// allocates nothing — the close, the edge, the scheduling step and what
// the sync object keeps. The root runs op in a loop while a peer goroutine
// runs its side of the edge; both record accesses, so records close, are
// checked and retire throughout. The trace is off, as outside tests.
func TestSteadyStateSyncOpAllocs(t *testing.T) {
	RecordTraceOff(t)
	const warm, ops = 8 * gcEvery, 4 * gcEvery
	for _, c := range []struct {
		name string
		// build returns the root's op and the peer's body, which runs its
		// side n times.
		build func(p *Program) (op func(*G), peer func(g *G, n int))
	}{
		{"Mutex", func(p *Program) (func(*G), func(*G, int)) {
			x := p.Alloc("x", 1)
			mu := p.NewMutex()
			op := func(g *G) {
				mu.Lock(g)
				g.Store(x, g.Load(x)+1)
				mu.Unlock(g)
			}
			return op, func(g *G, n int) {
				for range n {
					op(g)
				}
			}
		}},
		{"RWMutex", func(p *Program) (func(*G), func(*G, int)) {
			x := p.Alloc("x", 1)
			rw := p.NewRWMutex()
			op := func(g *G) {
				rw.RLock(g)
				g.Load(x)
				rw.RUnlock(g)
				rw.Lock(g)
				g.Store(x, 1)
				rw.Unlock(g)
			}
			return op, func(g *G, n int) {
				for range n {
					op(g)
				}
			}
		}},
		{"WaitGroup", func(p *Program) (func(*G), func(*G, int)) {
			x := p.Alloc("x", 1)
			wg := p.NewWaitGroup()
			start := p.NewChan(0)
			return func(g *G) {
					wg.Add(g, 1)
					start.Send(g, 0)
					wg.Wait(g)
					g.Load(x)
				}, func(g *G, n int) {
					for range n {
						start.Recv(g)
						g.Store(x, 1)
						wg.Done(g)
					}
				}
		}},
		{"unbuffered channel", func(p *Program) (func(*G), func(*G, int)) {
			// Ping-pong: each side writes x only between its receive and
			// its send.
			x := p.Alloc("x", 1)
			ch := p.NewChan(0)
			return func(g *G) {
					g.Store(x, 1)
					ch.Send(g, 1)
					ch.Recv(g)
				}, func(g *G, n int) {
					for range n {
						ch.Recv(g)
						g.Store(x, 2)
						ch.Send(g, 2)
					}
				}
		}},
		{"buffered channel", func(p *Program) (func(*G), func(*G, int)) {
			// The root fills slot k mod C+2 before send k, and the peer
			// reads it after receive k. The root refills that slot after
			// send k+C+1, which joined receive k+1, so the refill is
			// ordered after the read.
			const c = 2
			slots := p.Alloc("slots", c+2)
			slot := func(k uint64) mem.Addr { return slots + mem.Addr(k%(c+2)*mem.WordSize) }
			ch := p.NewChan(c)
			var k uint64
			return func(g *G) {
					g.Store(slot(k), k)
					ch.Send(g, k)
					k++
				}, func(g *G, n int) {
					for range n {
						v, _ := ch.Recv(g)
						g.Load(slot(v))
					}
				}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := New(Config{Seed: 1, Detect: true, MaxGs: 2})
			op, peer := c.build(p)
			// LeastAllocs measures three times; AllocsPerRun calls its
			// function once to warm up, then once measured.
			var got float64
			res := p.Run(func(g *G) {
				w := g.Go(func(g *G) { peer(g, warm+3*2*ops) })
				for range warm {
					op(g)
				}
				got = LeastAllocs(1, func() {
					for range ops {
						op(g)
					}
				})
				g.Join(w)
			})
			if res.Deadlocked || res.Stats.RecordsGCed == 0 || len(res.Races) != 0 {
				t.Fatalf("deadlocked %v, %d records retired, %d races: want a clean run that retires records",
					res.Deadlocked, res.Stats.RecordsGCed, len(res.Races))
			}
			if got != 0 {
				t.Errorf("%v allocations over %d ops after warm-up, want 0", got, ops)
			}
		})
	}
}

// TestClocksShareNoArray: every clock the detector or a sync object keeps
// owns its array — each goroutine's release buffer, each retained record's
// clock, each free clock, and what the mutexes, the wait group and the
// channel keep. A record that shared its goroutine's release buffer would
// have its clock rewritten at the goroutine's next close, and a recycled
// clock that was still someone's buffer would be rewritten by both. The
// root looks as its last step, while the run still holds everything; once
// Run has returned, the detector has handed its records, free clocks and
// builders back and holds none of them.
func TestClocksShareNoArray(t *testing.T) {
	const workers, rounds = 3, 100
	p := New(Config{Seed: 5, Detect: true, MaxGs: workers + 1})
	x, y := p.Alloc("x", 1), p.Alloc("y", 1)
	mu, rw, wg := p.NewMutex(), p.NewRWMutex(), p.NewWaitGroup()
	ch := p.NewChan(2)
	d := p.det
	var clocks, records, elems, chanClocks int
	look := func() {
		owners := map[*vc.Index]string{}
		add := func(name string, c vcClock) {
			if c == nil {
				return
			}
			if other, ok := owners[&c[0]]; ok {
				t.Errorf("%s shares its array with %s", name, other)
			}
			owners[&c[0]] = name
		}
		for g, c := range d.rel {
			add(fmt.Sprintf("g%d's release buffer", g), c)
		}
		for i, r := range d.records {
			add(fmt.Sprintf("record %v's clock", r.rec.ID), d.records[i].rec.VC)
		}
		for i, c := range d.clocks {
			add(fmt.Sprintf("free record clock %d", i), c)
		}
		add("Mutex.rel", mu.rel)
		add("RWMutex.wRel", rw.wRel)
		add("RWMutex.rdRel", rw.rdRel)
		add("WaitGroup.acc", wg.acc)
		add("WaitGroup.cycRel", wg.cycRel)
		for i, e := range ch.buf {
			add(fmt.Sprintf("element %d's clock", i), e.rel)
		}
		for i, c := range ch.bpq {
			add(fmt.Sprintf("backpressure clock %d", i), c)
		}
		for i, c := range ch.free {
			add(fmt.Sprintf("free channel clock %d", i), c)
		}
		add("Chan.closeRel", ch.closeRel)
		clocks, records, elems, chanClocks = len(d.clocks), len(d.records), len(ch.buf), len(ch.bpq)+len(ch.free)
	}
	res := p.Run(func(g *G) {
		wg.Add(g, workers)
		for range workers {
			g.Go(func(g *G) {
				for i := range rounds {
					mu.Lock(g)
					g.Store(x, g.Load(x)+1)
					mu.Unlock(g)
					rw.RLock(g)
					g.Load(y)
					rw.RUnlock(g)
					ch.Send(g, uint64(i))
				}
				wg.Done(g)
			})
		}
		for range workers*rounds - 1 { // leave one element buffered
			ch.Recv(g)
		}
		wg.Wait(g)
		rw.Lock(g)
		g.Store(y, 1)
		rw.Unlock(g)
		ch.Close(g)
		look()
	})
	if res.Stats.RecordsGCed == 0 || len(res.Races) != 0 {
		t.Fatalf("%d records retired, races %v: want a clean run that retires records", res.Stats.RecordsGCed, res.Races)
	}
	if clocks == 0 || records == 0 || elems == 0 || chanClocks == 0 {
		t.Fatalf("%d free record clocks, %d records, %d elements, %d backpressure and free channel clocks: want some of each",
			clocks, records, elems, chanClocks)
	}
	if len(d.clocks)+len(d.records) != 0 {
		t.Fatalf("after Run the detector keeps %d free clocks and %d records, want all handed back", len(d.clocks), len(d.records))
	}
	for g, b := range d.bld {
		if b != nil {
			t.Fatalf("after Run the detector keeps g%d's builder, want it handed back", g)
		}
	}
}

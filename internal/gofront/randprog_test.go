package gofront

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lrcrace/internal/mem"
)

// Randomized cross-validation: generate seeded programs over the full sync
// vocabulary (spawn/join, buffered and unbuffered channels, Mutex, RWMutex,
// WaitGroup), run them under the interval detector, and require the racy
// address set to match the classic per-access happens-before detector
// replaying the identical trace. Programs are free to deadlock — the
// scheduler abandons blocked goroutines and both detectors see the same
// trace prefix, so the contract holds on the prefix too.

// rinst is one generated instruction.
type rinst struct {
	kind int
	a    int  // object index (mutex/chan/script) or address word
	b    int  // secondary operand (address word for locked blocks)
	wg   bool // spawn: register the child with the shared WaitGroup
}

const (
	riLoad    = iota // a = word
	riStore          // a = word
	riLocked         // a = mutex, b = word: lock; load+store b; unlock
	riRWRead         // a = word: RLock; load; RUnlock
	riRWWrite        // a = word: Lock; load+store; Unlock
	riSend           // a = chan
	riRecv           // a = chan
	riSpawn          // a = script index
	riJoin           // join the oldest unjoined child, if any
	riWgWait
)

// rprog is a generated program: a script per goroutine, script 0 = root.
type rprog struct {
	scripts  [][]rinst
	chanCaps []int
	numMu    int
	words    int
}

const (
	rpMaxGs    = 8
	rpMaxDepth = 2
	rpWords    = 8
)

func genProg(seed int64) *rprog {
	rng := rand.New(rand.NewSource(seed))
	p := &rprog{
		chanCaps: []int{rng.Intn(3), rng.Intn(3)},
		numMu:    2,
		words:    rpWords,
	}
	p.scripts = append(p.scripts, nil) // reserve root slot
	p.scripts[0] = p.genScript(rng, 0)
	return p
}

func (p *rprog) genScript(rng *rand.Rand, depth int) []rinst {
	n := 5 + rng.Intn(25)
	script := make([]rinst, 0, n+1)
	for i := 0; i < n; i++ {
		w := rng.Intn(100)
		switch {
		case w < 25:
			script = append(script, rinst{kind: riLoad, a: rng.Intn(p.words)})
		case w < 50:
			script = append(script, rinst{kind: riStore, a: rng.Intn(p.words)})
		case w < 65:
			script = append(script, rinst{kind: riLocked, a: rng.Intn(p.numMu), b: rng.Intn(p.words)})
		case w < 70:
			script = append(script, rinst{kind: riRWRead, a: rng.Intn(p.words)})
		case w < 75:
			script = append(script, rinst{kind: riRWWrite, a: rng.Intn(p.words)})
		case w < 83:
			script = append(script, rinst{kind: riSend, a: rng.Intn(len(p.chanCaps))})
		case w < 91:
			script = append(script, rinst{kind: riRecv, a: rng.Intn(len(p.chanCaps))})
		case w < 97:
			if depth < rpMaxDepth && len(p.scripts) < rpMaxGs {
				idx := len(p.scripts)
				p.scripts = append(p.scripts, nil) // reserve before recursing
				p.scripts[idx] = p.genScript(rng, depth+1)
				script = append(script, rinst{kind: riSpawn, a: idx, wg: rng.Intn(2) == 0})
			}
		case w < 99:
			script = append(script, rinst{kind: riJoin})
		default:
			script = append(script, rinst{kind: riWgWait})
		}
	}
	// Roots usually collect their children so traces exercise join edges.
	if depth == 0 && rng.Intn(4) != 0 {
		script = append(script, rinst{kind: riJoin}, rinst{kind: riJoin}, rinst{kind: riWgWait})
	}
	return script
}

// run executes the generated program under gofront and returns the result.
func (p *rprog) run(seed int64, detect bool) *Result {
	return p.runWith(Config{Seed: seed, Detect: detect})
}

// runWith is run under cfg; MaxGs is the generator's budget.
func (p *rprog) runWith(cfg Config) *Result {
	cfg.MaxGs = rpMaxGs
	prog := New(cfg)
	base := prog.Alloc("s", p.words)
	addr := func(w int) mem.Addr { return base + mem.Addr(w*mem.WordSize) }
	mus := make([]*Mutex, p.numMu)
	for i := range mus {
		mus[i] = prog.NewMutex()
	}
	rw := prog.NewRWMutex()
	wg := prog.NewWaitGroup()
	var chans []*Chan

	var exec func(g *G, idx int)
	exec = func(g *G, idx int) {
		var kids []*G
		for _, in := range p.scripts[idx] {
			switch in.kind {
			case riLoad:
				g.Load(addr(in.a))
			case riStore:
				g.Store(addr(in.a), uint64(in.a+1))
			case riLocked:
				mu := mus[in.a]
				mu.Lock(g)
				a := addr(in.b)
				g.Store(a, g.Load(a)+1)
				mu.Unlock(g)
			case riRWRead:
				rw.RLock(g)
				g.Load(addr(in.a))
				rw.RUnlock(g)
			case riRWWrite:
				rw.Lock(g)
				a := addr(in.a)
				g.Store(a, g.Load(a)+1)
				rw.Unlock(g)
			case riSend:
				chans[in.a].Send(g, uint64(idx))
			case riRecv:
				chans[in.a].Recv(g)
			case riSpawn:
				child := in.a
				useWg := in.wg
				if useWg {
					wg.Add(g, 1)
				}
				kids = append(kids, g.Go(func(cg *G) {
					exec(cg, child)
					if useWg {
						wg.Done(cg)
					}
				}))
			case riJoin:
				if len(kids) > 0 {
					g.Join(kids[0])
					kids = kids[1:]
				}
			case riWgWait:
				wg.Wait(g)
			}
		}
	}

	return prog.Run(func(g *G) {
		for i, c := range p.chanCaps {
			_ = i
			chans = append(chans, prog.NewChan(c))
		}
		exec(g, 0)
	})
}

// TestRandomProgramsCrossValidate is the headline cross-validation contract:
// over 250 seeded random programs, the interval detector and the per-access
// happens-before replay agree on the racy address set.
func TestRandomProgramsCrossValidate(t *testing.T) {
	const programs = 250
	racy, deadlocked := 0, 0
	for seed := int64(0); seed < programs; seed++ {
		p := genProg(seed)
		res := p.run(seed, true)
		got := res.RacyAddrs
		want := RacyAddrsHB(res.Trace(), res.NumGs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: racy addr mismatch\n gofront: %v\n hbdet:   %v\n trace (%d events): %v",
				seed, got, want, len(res.Trace()), res.Trace())
		}
		if len(got) > 0 {
			racy++
		}
		if res.Deadlocked {
			deadlocked++
		}
	}
	t.Logf("%d programs: %d racy, %d deadlocked", programs, racy, deadlocked)
	// The generator must actually produce diverse behavior or the
	// cross-validation is vacuous.
	if racy < programs/10 {
		t.Fatalf("generator too tame: only %d/%d programs raced", racy, programs)
	}
	if racy == programs {
		t.Fatalf("generator never produced a race-free program")
	}
}

// TestRandomProgramsDeterministic reruns a sample of seeds and requires
// byte-identical traces, race sets, and stats — the determinism contract the
// sweep grid depends on.
func TestRandomProgramsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		p := genProg(seed)
		r1 := p.run(seed, true)
		r2 := p.run(seed, true)
		if !reflect.DeepEqual(r1.Trace(), r2.Trace()) {
			t.Fatalf("seed %d: trace not deterministic", seed)
		}
		if !reflect.DeepEqual(r1.RacyAddrs, r2.RacyAddrs) {
			t.Fatalf("seed %d: race set not deterministic: %v vs %v", seed, r1.RacyAddrs, r2.RacyAddrs)
		}
		if r1.Stats != r2.Stats {
			t.Fatalf("seed %d: stats not deterministic:\n%+v\n%+v", seed, r1.Stats, r2.Stats)
		}
	}
}

// TestRandomProgramsDetectOffReplay checks the trace-only mode: with the
// inline detector off, replaying the trace still yields the same set as a
// detecting run of the same seed.
func TestRandomProgramsDetectOffReplay(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		p := genProg(seed)
		on := p.run(seed, true)
		off := p.run(seed, false)
		if !reflect.DeepEqual(on.Trace(), off.Trace()) {
			t.Fatalf("seed %d: detect on/off changed the trace", seed)
		}
		if want := RacyAddrsHB(off.Trace(), off.NumGs); !reflect.DeepEqual(on.RacyAddrs, want) {
			t.Fatalf("seed %d: detect-off replay mismatch: %v vs %v", seed, on.RacyAddrs, want)
		}
	}
}

// FuzzRandomProgram carries the randomized cross-validation to any
// generator seed: the interval detector's racy address set must equal
// hbdet's replay of the identical trace, and turning detection off must not
// move the trace.
func FuzzRandomProgram(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		p := genProg(seed)
		on := p.run(seed, true)
		if want := RacyAddrsHB(on.Trace(), on.NumGs); !reflect.DeepEqual(on.RacyAddrs, want) {
			t.Fatalf("seed %d: racy addr mismatch\n gofront: %v\n hbdet:   %v", seed, on.RacyAddrs, want)
		}
		if off := p.run(seed, false); !reflect.DeepEqual(on.Trace(), off.Trace()) {
			t.Fatalf("seed %d: detect on/off changed the trace", seed)
		}
	})
}

func init() {
	// Guard against accidental generator drift: scripts must stay within the
	// goroutine budget (the reserve-before-recurse pattern above).
	p := genProg(1)
	if len(p.scripts) > rpMaxGs {
		panic(fmt.Sprintf("randprog: %d scripts exceeds budget %d", len(p.scripts), rpMaxGs))
	}
}

// Package gofront is a Go-native happens-before frontend for the paper's
// interval/vector-clock race detector. Where the DSM frontend derives
// intervals from lock tenures and barrier epochs over page traffic, this
// frontend models Go-memory-model programs directly: goroutines
// (spawn/join), channels (unbuffered rendezvous and buffered FIFO edges),
// Mutex/RWMutex, and WaitGroup. Every synchronization operation closes the
// running goroutine's current interval and opens a new one — the paper's
// "new interval at every acquire, release, or barrier" rule generalized to
// Go sync edges — and the per-location access bitmaps of each closed
// interval are checked against the retained concurrent history exactly as
// the DSM detector checks at barriers.
//
// Programs execute under a deterministic cooperative scheduler: every
// modeled goroutine is a coroutine (iter.Pull), exactly one runs at a time,
// and at each yield point a seeded PRNG picks the next runnable goroutine.
// The yielding goroutine makes that pick itself: on picking itself it runs
// on, otherwise it leaves the pick for Run's loop and suspends, and the loop
// resumes the pick — one coroutine switch per scheduling step, no goroutine
// wake. The same seed therefore produces the same linearization and the
// same race set — which is what makes the package's cross-validation
// contract testable: test binaries record the linearized trace, replay it
// through the classic per-access detector (internal/hbdet) via ReplayHB,
// and require both detectors to flag identical racy-address sets. Other
// binaries record no trace, since the online detector never reads one. A
// panic in a modeled goroutine (send on a closed channel, unlock by a
// non-holder) reaches Run's caller.
package gofront

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"lrcrace/internal/mem"
	"lrcrace/internal/race"
	"lrcrace/internal/telemetry"
)

// Virtual-time costs per modeled operation, in nanoseconds. They are
// arbitrary but fixed: virtual time orders nothing (the scheduler does) and
// exists so gofront runs report a deterministic VirtualNS alongside the DSM
// frontend's.
const (
	costAccess = 2
	costSync   = 40
	costSpawn  = 100
	costSched  = 8
)

// The modeled shared segment is 64 KiB, in 512-byte detector pages (the
// page-granularity pre-filter of the race check).
const (
	memBytes  = 1 << 16
	pageBytes = 512
)

// Config sizes one modeled program.
type Config struct {
	// MaxGs bounds the goroutine count and fixes the version-vector width.
	// 0 → 16.
	MaxGs int
	// Seed drives the scheduler's runnable-goroutine choice.
	Seed int64
	// Detect enables the interval detector. Test binaries record the trace
	// either way, so hbdet replay works on detection-off runs too.
	Detect bool
	// Recorder optionally receives scoped telemetry (KGoSync, KGoCheck,
	// KIntervalClose, KRaceFound).
	Recorder *telemetry.Recorder
}

func (c Config) withDefaults() Config {
	if c.MaxGs <= 0 {
		c.MaxGs = 16
	}
	return c
}

// Symbol names a modeled shared variable: Alloc'd address range plus name.
type Symbol struct {
	Name  string
	Addr  mem.Addr
	Words int
}

type gstate uint8

const (
	gDone gstate = iota // also a new G's zero state, before newG counts it
	gRunnable
	gRunning
	gBlocked
)

// G is one modeled goroutine. All its methods must be called from inside
// the goroutine's own body function (they assume the caller is the running
// coroutine).
type G struct {
	p     *Program
	id    int
	state gstate // changed only through Program.setState

	// The goroutine's coroutine: Run's loop resumes it with next, yield
	// suspends it with park (false once stop was called), and Run ends it
	// with stop as it returns.
	next func() (struct{}, bool)
	stop func()
	park func(struct{}) bool

	// Completion slots for blocking ops, filled by the waking peer.
	recvVal uint64
	recvOK  bool
	sendVal uint64
	rel     vcClock // pending release clock while blocked on a channel/join

	joiners []*G
	final   vcClock // release clock at exit, joined by Join

	// futureLB, set while blocked, is what the goroutine waits on. The
	// horizon GC asks it for a clock the goroutine is guaranteed to merge
	// before it runs again, so a parked waiter — the ubiquitous
	// root-waits-for-workers shape — does not pin the whole record history
	// at its stale knowledge.
	futureLB resumeBound
}

// resumeBound is a sync object a goroutine can block on — or, for Join, the
// goroutine it waits for. resumeLB returns a clock (the join target's or
// lock holder's current clock, the running WaitGroup cycle's Dones) that a
// goroutine blocked on it is guaranteed to merge before it runs again, or
// nil if there is none yet. The sync objects and *G implement it, so a
// blocking op stores a pointer it already has instead of a closure.
type resumeBound interface{ resumeLB() vcClock }

// resumeLB implements resumeBound for Join: the joiner will merge at least
// the target's current knowledge.
func (g *G) resumeLB() vcClock { return g.p.det.vcs[g.id] }

// ID returns the goroutine's index (0 is the root).
func (g *G) ID() int { return g.id }

// Program is one modeled Go program: shared memory, goroutines, sync
// objects, the interval detector, and (in test binaries) the linearized
// event trace.
type Program struct {
	cfg    Config
	layout mem.Layout
	seg    *mem.Segment
	rng    *rand.Rand   // the scheduler's, from Rand
	rands  []*rand.Rand // every generator Rand handed out, for Run to hand back
	scope  telemetry.Scope

	gs []*G
	// ready has bit g.id set exactly while g is gRunnable; nReady and
	// nBlocked count the gRunnable and gBlocked goroutines. setState keeps
	// all three in step with the G states.
	ready            []uint64
	nReady, nBlocked int
	baton            *G   // the pick a suspending or exiting goroutine leaves for Run's loop
	finished         bool // set once Run has its result or a panic: yield and exit touch nothing

	det   *detector
	trace []Event // recorded only when recordTrace is set
	vt    int64

	syms     []Symbol
	nextAddr mem.Addr

	nextChan, nextMutex, nextRW, nextWG int

	stats      Stats
	deadlocked bool
	ran        bool
}

// New returns a Program for cfg.
func New(cfg Config) *Program {
	cfg = cfg.withDefaults()
	layout, err := mem.NewLayout(memBytes, pageBytes)
	if err != nil {
		panic(fmt.Sprintf("gofront: bad layout: %v", err))
	}
	p := &Program{
		cfg:    cfg,
		layout: layout,
		seg:    mem.NewSegment(layout),
		scope:  telemetry.To(cfg.Recorder),
	}
	p.rng = p.Rand(cfg.Seed)
	p.det = newDetector(p)
	return p
}

// rands holds the generators finished programs handed back, for Rand.
var rands sync.Pool

// Rand returns a generator that draws exactly what
// rand.New(rand.NewSource(seed)) would, for the program's setup or its
// goroutines. The program owns it until Run returns: Run hands it back for
// a later program's Rand to reseed, so nothing may use it after Run. Like
// Alloc, it is callable during setup or from a running goroutine.
func (p *Program) Rand(seed int64) *rand.Rand {
	r, ok := rands.Get().(*rand.Rand)
	if ok {
		r.Seed(seed)
	} else {
		r = rand.New(rand.NewSource(seed))
	}
	p.rands = append(p.rands, r)
	return r
}

// Alloc reserves words consecutive shared words under name and returns the
// base address. Callable during setup or from a running goroutine (never
// both at once).
func (p *Program) Alloc(name string, words int) mem.Addr {
	if words <= 0 {
		panic("gofront: Alloc of <= 0 words")
	}
	a := p.nextAddr
	end := a + mem.Addr(words*mem.WordSize)
	if !p.layout.Contains(end - 1) {
		panic(fmt.Sprintf("gofront: out of modeled memory allocating %q (%d words)", name, words))
	}
	p.nextAddr = end
	p.syms = append(p.syms, Symbol{Name: name, Addr: a, Words: words})
	return a
}

// Layout returns the modeled segment layout.
func (p *Program) Layout() mem.Layout { return p.layout }

func (p *Program) newG() *G {
	if len(p.gs) >= p.cfg.MaxGs {
		panic(fmt.Sprintf("gofront: goroutine limit MaxGs=%d exceeded", p.cfg.MaxGs))
	}
	g := &G{p: p, id: len(p.gs)}
	p.gs = append(p.gs, g)
	if g.id%64 == 0 {
		p.ready = append(p.ready, 0)
	}
	p.setState(g, gRunnable)
	p.stats.Goroutines++
	return g
}

// setState moves g to state s, keeping the ready set and the counts in
// step.
func (p *Program) setState(g *G, s gstate) {
	switch g.state {
	case gRunnable:
		p.ready[g.id/64] &^= 1 << (g.id % 64)
		p.nReady--
	case gBlocked:
		p.nBlocked--
	}
	switch s {
	case gRunnable:
		p.ready[g.id/64] |= 1 << (g.id % 64)
		p.nReady++
	case gBlocked:
		p.nBlocked++
	}
	g.state = s
}

// pick makes one scheduling step: it draws k uniformly below the runnable
// count and runs the k-th runnable goroutine in id order, or returns nil
// when none is runnable.
func (p *Program) pick() *G {
	if p.nReady == 0 {
		return nil
	}
	k := p.rng.Intn(p.nReady)
	w := 0
	for n := bits.OnesCount64(p.ready[w]); k >= n; n = bits.OnesCount64(p.ready[w]) {
		k -= n
		w++
	}
	word := p.ready[w]
	for ; k > 0; k-- {
		word &= word - 1 // drop the lowest set bit
	}
	g := p.gs[w*64+bits.TrailingZeros64(word)]
	p.setState(g, gRunning)
	p.vt += costSched
	p.stats.SchedSteps++
	return g
}

// Go spawns fn as a new goroutine. The spawn is a release edge: the
// parent's current interval closes and the child's first interval starts
// with the parent's knowledge.
func (g *G) Go(fn func(*G)) *G {
	p := g.p
	p.vt += costSpawn
	p.stats.Syncs++
	p.stats.SpawnOps++
	child := p.newG()
	rel := p.det.closeInterval(g.id, true)
	p.emit(OpSpawn, g.id, child.id, 0, 0, 0)
	p.startG(child, rel, fn)
	g.yield()
	return child
}

// Join blocks until t exits, then joins t's final release clock (the Go
// memory model's "goroutine exit is not ordered" caveat does not apply:
// Join models the usual channel/WaitGroup-based join idiom as a direct
// edge).
func (g *G) Join(t *G) {
	p := g.p
	p.vt += costSync
	p.stats.Syncs++
	p.stats.SpawnOps++
	p.det.closeInterval(g.id, false)
	if t.state == gDone {
		p.det.join(g.id, t.final)
		p.emit(OpJoin, g.id, t.id, 0, 0, 0)
		g.yield()
		return
	}
	t.joiners = append(t.joiners, g)
	g.futureLB = t
	g.block()
}

// Load reads the shared word at a.
func (g *G) Load(a mem.Addr) uint64 {
	p := g.p
	p.vt += costAccess
	p.stats.Loads++
	p.det.noteRead(g.id, a)
	p.emit(OpLoad, g.id, 0, 0, 0, a)
	return p.seg.Word(a)
}

// Store writes the shared word at a.
func (g *G) Store(a mem.Addr, v uint64) {
	p := g.p
	p.vt += costAccess
	p.stats.Stores++
	p.det.noteWrite(g.id, a)
	p.emit(OpStore, g.id, 0, 0, 0, a)
	p.seg.SetWord(a, v)
}

// recordTrace makes emit keep the linearized trace. Only the tests read
// it (hbdet cross-validation, schedule pins, determinism checks), so it is
// on in test binaries and off everywhere else.
var recordTrace = testing.Testing()

func (p *Program) emit(op Op, g, obj, seq, seq2 int, a mem.Addr) {
	if recordTrace {
		p.trace = append(p.trace, Event{Op: op, G: g, Obj: obj, Seq: seq, Seq2: seq2, Addr: a})
	}
	if op > OpStore { // sync ops only; loads/stores would flood the rings
		p.scope.Emit(g, telemetry.KGoSync, p.vt, int64(op), int64(obj), int64(p.det.idx[g]))
	}
}

// Stats counts the work a program run performed.
type Stats struct {
	Goroutines int
	Loads      int
	Stores     int
	Syncs      int // sync operations (chan + lock + wg + spawn/join)
	ChanOps    int
	LockOps    int // Mutex + RWMutex
	WGOps      int
	SpawnOps   int // Go + Join

	Intervals       int // interval records materialized
	PairsExamined   int // closed-record pairs version-vector-compared
	ConcurrentPairs int
	CheckEntries    int // (pair, page) bitmap-comparison entries
	BitmapsCompared int
	WordOverlaps    int // racing words found (before dedup)
	RecordsGCed     int // records retired by the knowledge-horizon GC

	SchedSteps int64
}

// Result is everything one program run produced.
type Result struct {
	// Races is the deduplicated race set (one representative per address
	// and endpoint-kind pair), in deterministic discovery order.
	Races []race.Report
	// RacyAddrs is the sorted distinct address set — the cross-validation
	// currency against hbdet.
	RacyAddrs []mem.Addr
	Stats     Stats
	// NumGs is the goroutine count (the clock width ReplayHB needs).
	NumGs      int
	VirtualNS  int64
	Deadlocked bool
	Symbols    []Symbol

	trace []Event
}

// Trace returns the linearized event stream, the input ReplayHB drives the
// reference detector from. It is recorded only in test binaries; elsewhere
// Trace returns nil. The caller must not modify the list.
func (r *Result) Trace() []Event { return r.trace }

// SymbolAt resolves a modeled address to "name[i]" via the Alloc table.
func (r *Result) SymbolAt(a mem.Addr) (string, bool) {
	for _, s := range r.Symbols {
		if a >= s.Addr && a < s.Addr+mem.Addr(s.Words*mem.WordSize) {
			if s.Words == 1 {
				return s.Name, true
			}
			return fmt.Sprintf("%s[%d]", s.Name, int(a-s.Addr)/mem.WordSize), true
		}
	}
	return "", false
}

func (p *Program) finish() *Result {
	p.det.finishAll()
	// The Result is taken: what a stopped goroutine's deferred calls do
	// from here on is not checked, and records nothing.
	p.det.enabled = false
	races := p.det.reports
	addrSet := make(map[mem.Addr]bool)
	for _, rep := range races {
		p.scope.Emit(rep.A.Interval.Proc, telemetry.KRaceFound, p.vt,
			int64(rep.Addr), 0, b2i(rep.WriteWrite()))
		addrSet[rep.Addr] = true
	}
	addrs := make([]mem.Addr, 0, len(addrSet))
	for a := range addrSet {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	return &Result{
		Races:      races,
		RacyAddrs:  addrs,
		Stats:      p.stats,
		NumGs:      len(p.gs),
		VirtualNS:  p.vt,
		Deadlocked: p.deadlocked,
		Symbols:    p.syms,
		trace:      p.trace,
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

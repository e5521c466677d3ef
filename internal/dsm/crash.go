package dsm

import (
	"fmt"

	"lrcrace/internal/telemetry"
)

// CrashPoint selects where in the protocol a CrashPlan kills its victim.
type CrashPoint int

const (
	// CrashMidInterval (the default) kills the victim after its AfterN-th
	// shared access of epoch CrashPlan.Epoch — mid-interval, with an open
	// interval and unflushed access bitmaps.
	CrashMidInterval CrashPoint = iota
	// CrashAtVTime kills the victim at its first shared access once its
	// virtual clock reaches CrashPlan.VTime.
	CrashAtVTime
	// CrashHoldingLock kills the victim immediately after it acquires its
	// AfterN-th lock of epoch CrashPlan.Epoch — while holding the lock, so
	// recovery must let the manager reclaim the dead holder's tenure.
	CrashHoldingLock
	// CrashInBitmapRound kills the victim inside the barrier's extra
	// detection round of epoch CrashPlan.Epoch: after it has received the
	// barrier release (with NeedBitmaps set) but before it sends its
	// BitmapReply, wedging the master mid-comparison.
	CrashInBitmapRound
)

func (c CrashPoint) String() string {
	switch c {
	case CrashAtVTime:
		return "at-vtime"
	case CrashMidInterval:
		return "mid-interval"
	case CrashHoldingLock:
		return "holding-lock"
	case CrashInBitmapRound:
		return "in-bitmap-round"
	default:
		return fmt.Sprintf("CrashPoint(%d)", int(c))
	}
}

// CrashPlan schedules the crash of one process, deterministically — the
// process-death analogue of simnet.FaultPlan's wire faults. Each plan
// fires at most once per System (the System keeps that state, so one
// Config can build any number of Systems): after a coordinated rollback
// the re-executed epoch runs free of that plan's crash, exactly like a
// machine that is rebooted once. A system can carry several plans
// (Config.Crashes) for compound faults: two victims in the same epoch, or
// a second crash arming only once recovery has begun (DuringRecovery).
//
// The victim dies abruptly: its application coroutine stops, nothing
// delivered to it is handled any more, and it sends and acknowledges
// nothing. Nothing is announced — survivors must detect the death through
// reliable-link retry-cap exhaustion or a wait that can never end, as on
// real hardware.
type CrashPlan struct {
	// Victim is the process to kill, in [1, NumProcs). Process 0 (the
	// barrier master and detector host) cannot be a victim: the recovery
	// protocol is coordinated by the master's successor checkpoint, and
	// master fail-over is out of scope.
	Victim int
	// Epoch is the barrier epoch during which the protocol-point crashes
	// (CrashMidInterval, CrashHoldingLock, CrashInBitmapRound) fire.
	// Ignored by CrashAtVTime.
	Epoch int32
	// Point is where the victim dies.
	Point CrashPoint
	// VTime is the virtual-time trigger for CrashAtVTime.
	VTime int64
	// AfterN counts trigger sites within the epoch for CrashMidInterval
	// (shared accesses) and CrashHoldingLock (lock acquisitions); 0 → 1.
	// Plans targeting the same victim share the per-process site counters.
	AfterN int
	// DuringRecovery arms the plan only on re-execution attempts, after at
	// least one coordinated rollback has happened — a second failure
	// striking while the system is still healing from the first.
	DuringRecovery bool
}

// Validate checks the plan against a system of n processes.
func (c *CrashPlan) Validate(n int) error {
	if c.Victim < 1 || c.Victim >= n {
		return fmt.Errorf("crash plan: victim %d out of range [1, %d)", c.Victim, n)
	}
	switch c.Point {
	case CrashAtVTime:
		if c.VTime <= 0 {
			return fmt.Errorf("crash plan: %v requires VTime > 0", c.Point)
		}
	case CrashMidInterval, CrashHoldingLock, CrashInBitmapRound:
		if c.Epoch < 0 {
			return fmt.Errorf("crash plan: Epoch = %d", c.Epoch)
		}
	default:
		return fmt.Errorf("crash plan: unknown point %d", int(c.Point))
	}
	if c.AfterN < 0 {
		return fmt.Errorf("crash plan: AfterN = %d", c.AfterN)
	}
	return nil
}

func (c *CrashPlan) afterN() int {
	if c.AfterN <= 0 {
		return 1
	}
	return c.AfterN
}

// RandomCrashPlan derives a crash plan deterministically from seed for a
// run of n processes and the given epoch count: a seed-driven victim,
// epoch, and mid-interval trigger offset (the one crash point every
// workload exposes). The same seed always produces the same plan.
func RandomCrashPlan(seed uint64, n int, epochs int32) *CrashPlan {
	if n < 2 || epochs < 1 {
		return nil
	}
	next := splitmix64(seed)
	return &CrashPlan{
		Victim: 1 + int(next()%uint64(n-1)),
		Epoch:  int32(next() % uint64(epochs)),
		Point:  CrashMidInterval,
		AfterN: 1 + int(next()%4),
	}
}

// splitmix64 returns a deterministic PRNG seeded with seed — the same
// generator simnet's fault plan seeds with, shared by every seed-driven
// plan derivation in this package.
func splitmix64(seed uint64) func() uint64 {
	s := seed
	return func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		return z
	}
}

// crashSite labels the instrumentation sites that consult the plan.
type crashSite int

const (
	siteAccess crashSite = iota
	siteLock
	siteBitmap
)

// crashPanic is the typed panic a victim's application coroutine dies
// with. The scheduler recognizes it and — unlike a genuine panic — does NOT
// end the attempt: the survivors must notice the silence themselves.
type crashPanic struct {
	proc  int
	point CrashPoint
}

func (c crashPanic) String() string {
	return fmt.Sprintf("proc %d crashed (injected, %v)", c.proc, c.point)
}

// shouldCrash consults every armed crash plan at one instrumentation site;
// the caller acts on a true return with crashNow. The per-process site
// counters advance once per visit, shared by all plans targeting this
// victim; the firing plan is recorded on the process for crashNow.
func (p *Proc) shouldCrash(site crashSite) bool {
	var countedAccess, countedLock bool
	for i, cp := range p.sys.cfg.Crashes {
		if cp.Victim != p.id || p.sys.crashFired[i] {
			continue
		}
		if cp.DuringRecovery && p.sys.recStats.Recoveries == 0 {
			continue
		}
		switch cp.Point {
		case CrashAtVTime:
			if site != siteAccess || p.vnow < cp.VTime {
				continue
			}
		case CrashMidInterval:
			if site != siteAccess || p.epoch != cp.Epoch {
				continue
			}
			if !countedAccess {
				countedAccess = true
				p.crashAccesses++
			}
			if p.crashAccesses < cp.afterN() {
				continue
			}
		case CrashHoldingLock:
			if site != siteLock || p.epoch != cp.Epoch {
				continue
			}
			if !countedLock {
				countedLock = true
				p.crashLocks++
			}
			if p.crashLocks < cp.afterN() {
				continue
			}
		case CrashInBitmapRound:
			if site != siteBitmap || p.epoch != cp.Epoch {
				continue
			}
		default:
			continue
		}
		p.sys.crashFired[i] = true
		p.firedCrash = cp
		return true
	}
	return false
}

// crashNow kills this process: its endpoint in the reliability sublayer
// goes silent (no sends, retransmissions or acknowledgments) and the
// application coroutine unwinds with a crashPanic, upon which the
// scheduler drops every delivery to the process.
func (p *Proc) crashNow() {
	v := p.vnow
	pt := CrashMidInterval
	if p.firedCrash != nil {
		pt = p.firedCrash.Point
	}
	p.tel.Emit(p.id, telemetry.KCrashInjected, v, int64(pt), int64(p.id), 0)
	if rel := p.sys.rel; rel != nil {
		rel.KillEndpoint(p.id)
	}
	panic(crashPanic{proc: p.id, point: pt})
}

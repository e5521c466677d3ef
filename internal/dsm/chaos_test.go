package dsm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/race"
	"lrcrace/internal/simnet"
)

// chaosPlan is the acceptance-criteria chaos mix: 10% drop, 5% dup,
// bounded reordering.
func chaosPlan(seed int64) *simnet.FaultPlan {
	return &simnet.FaultPlan{Seed: seed, Drop: 0.10, Dup: 0.05, Reorder: 0.10, MaxReorder: 3}
}

// newChaosSys mirrors newSys with the lossy wire and the reliability
// sublayer enabled.
func newChaosSys(t *testing.T, nproc int, proto ProtocolKind, detect bool, seed int64) *System {
	t.Helper()
	s, err := New(Config{
		NumProcs:   nproc,
		SharedSize: 16 * 1024,
		PageSize:   1024,
		Protocol:   proto,
		Detect:     detect,
		Faults:     chaosPlan(seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// raceKeys reduces reports to a comparable, order-independent set.
func raceKeys(reports []race.Report) map[string]bool {
	keys := map[string]bool{}
	for _, r := range race.DedupByAddr(reports) {
		keys[r.String()] = true
	}
	return keys
}

// runFigure2 drives the paper's Figure 2 execution (same as
// TestPaperFigure2EndToEnd) on the given system and returns the deduped
// races.
func runFigure2(t *testing.T, s *System, p1SecondWrite, p2Write int) []race.Report {
	t.Helper()
	page0, _ := s.Alloc("page0", 1024)
	addr := func(word int) mem.Addr { return page0 + mem.Addr(word*8) }
	p1Released := &Gate{}
	p2Acquired := &Gate{}
	err := s.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Lock(0)
			p.Write(addr(0), 1)
			p.Unlock(0)
			p1Released.Open()
			p.Wait(p2Acquired)
			p.Write(addr(p1SecondWrite), 2)
		} else {
			p.Wait(p1Released)
			p.Lock(0)
			p.Write(addr(p2Write), 3)
			p.Unlock(0)
			p2Acquired.Open()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return race.DedupByAddr(s.Races())
}

// TestChaosFigure2SameRaces runs Figure 2 over the chaos wire and demands
// the exact same race sets as the reliable run: the reliability sublayer
// must make a 10%-drop wire protocol-invisible.
func TestChaosFigure2SameRaces(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		p1SecondWrite, p2Write int
	}{
		{"same-word", 8, 8},
		{"false-sharing", 8, 9},
		{"ordered-then-racy", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reliable := runFigure2(t, newSys(t, 2, SingleWriter, true), tc.p1SecondWrite, tc.p2Write)
			chaosSys := newChaosSys(t, 2, SingleWriter, true, 0xC0FFEE)
			chaos := runFigure2(t, chaosSys, tc.p1SecondWrite, tc.p2Write)
			if !reflect.DeepEqual(raceKeys(reliable), raceKeys(chaos)) {
				t.Errorf("race sets differ:\nreliable: %v\nchaos:    %v", reliable, chaos)
			}
			st := chaosSys.NetStats()
			if st.TotalDropped() == 0 {
				t.Error("chaos wire dropped nothing — plan not applied")
			}
			if st.Retransmits == 0 {
				t.Error("no retransmissions despite drops")
			}
		})
	}
}

// runFigure5 drives a deterministic (real-time gated) rendering of the
// paper's Figure 5 missing-synchronization queue on the given system:
// P1 publishes without a release pairing, P2 consumes without an acquire,
// P3 scribbles into the consumed slot afterwards. Every access is gated
// by gates, so the race set is identical run to run.
func runFigure5(t *testing.T, s *System) []race.Report {
	t.Helper()
	qPtr, _ := s.AllocWords("qPtr", 1)
	qEmpty, _ := s.AllocWords("qEmpty", 1)
	buf, _ := s.AllocWords("buf", 64)
	p1Done := &Gate{}
	p2Done := &Gate{}
	err := s.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Write(buf+mem.Addr(32*8), 99)
			p.Write(qPtr, 32)
			p.Write(qEmpty, 0)
			p1Done.Open()
		case 1:
			p.Wait(p1Done)
			if p.Read(qEmpty) == 0 {
				idx := p.Read(qPtr)
				p.Read(buf + mem.Addr(idx*8))
			}
			p2Done.Open()
		case 2:
			p.Wait(p2Done)
			p.Write(buf+mem.Addr(32*8), 7)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return race.DedupByAddr(s.Races())
}

func TestChaosFigure5SameRaces(t *testing.T) {
	reliable := runFigure5(t, newSys(t, 3, SingleWriter, true))
	chaosSys := newChaosSys(t, 3, SingleWriter, true, 0xBADCAB)
	chaos := runFigure5(t, chaosSys)
	if !reflect.DeepEqual(raceKeys(reliable), raceKeys(chaos)) {
		t.Errorf("race sets differ:\nreliable: %v\nchaos:    %v", reliable, chaos)
	}
	if st := chaosSys.NetStats(); st.TotalDropped() == 0 || st.Retransmits == 0 {
		t.Errorf("chaos not exercised: dropped=%d retransmits=%d", st.TotalDropped(), st.Retransmits)
	}
}

// TestChaosBothProtocols runs a lock-ordered increment chain under chaos
// on both coherence protocols: result correctness (no lost updates)
// proves page replies, diffs and grants all survive the lossy wire.
func TestChaosBothProtocols(t *testing.T) {
	bothProtocols(t, func(t *testing.T, proto ProtocolKind) {
		s := newChaosSys(t, 4, proto, false, 77)
		counter, _ := s.AllocWords("counter", 1)
		const rounds = 5
		err := s.Run(func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Lock(0)
				p.Write(counter, p.Read(counter)+1)
				p.Unlock(0)
			}
			p.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.SnapshotWord(counter); got != 4*rounds {
			t.Errorf("counter = %d, want %d (lost update over chaos wire)", got, 4*rounds)
		}
	})
}

// TestChaosDeterministicRaceSets runs the same chaos seed twice over a
// deterministic scenario: identical race.Report sets both times (the
// replay property fault injection must preserve).
func TestChaosDeterministicRaceSets(t *testing.T) {
	run := func() map[string]bool {
		s := newChaosSys(t, 2, SingleWriter, true, 31337)
		return raceKeys(runFigure2(t, s, 8, 8))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same chaos seed produced different race sets:\n%v\nvs\n%v", a, b)
	}
}

// TestFaultPlanCheckedAtNew: a malformed plan is rejected at New, not
// deferred to Run, and jitter alone, which preserves the FIFO/reliable
// contract, is accepted.
func TestFaultPlanCheckedAtNew(t *testing.T) {
	if _, err := New(Config{
		NumProcs:   2,
		SharedSize: 4096,
		Faults:     &simnet.FaultPlan{Seed: 1, Drop: 1.5},
	}); err == nil {
		t.Fatal("Drop=1.5 accepted at New")
	}
	if _, err := New(Config{
		NumProcs:   2,
		SharedSize: 4096,
		Faults:     &simnet.FaultPlan{Seed: 1, JitterNS: 1000},
	}); err != nil {
		t.Fatalf("jitter-only plan rejected: %v", err)
	}
}

// sublayerWires are the three kinds of wire a run can have: reliable,
// reliable but jittered, and lossy.
var sublayerWires = []struct {
	name   string
	faults *simnet.FaultPlan
}{
	{"none", nil},
	{"jitter", &simnet.FaultPlan{Seed: 3, JitterNS: 5000}},
	{"lossy", chaosPlan(3)},
}

// TestSublayerDerived: the run carries the reliability sublayer exactly
// when the wire is lossy or recovery is armed (crash plans, or RunEpochs
// with checkpointing), across wire × entry point × crash plan. A run
// without it sends no acknowledgment.
func TestSublayerDerived(t *testing.T) {
	entries := []struct {
		name         string
		epochs, ckpt bool
	}{
		{"Run", false, true},
		{"RunEpochs", true, true},
		{"RunEpochs-NoCheckpoint", true, false},
	}
	for _, w := range sublayerWires {
		for _, e := range entries {
			for _, crash := range []bool{false, true} {
				if crash && (!e.ckpt || !e.epochs) {
					// Crash plans require checkpointing, and Run refuses
					// them (TestRunRefusesCrashPlans).
					continue
				}
				name := fmt.Sprintf("%s/%s/crash=%v", w.name, e.name, crash)
				t.Run(name, func(t *testing.T) {
					cfg := Config{
						NumProcs: 3, SharedSize: 4096, PageSize: 1024, Detect: true,
						Faults: w.faults, NoCheckpoint: !e.ckpt,
					}
					if crash {
						cfg.Crashes = []*CrashPlan{{Victim: 1, Epoch: 1, Point: CrashMidInterval}}
					}
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					x, _ := s.AllocWords("x", 1)
					body := func(p *Proc, _ int32) {
						p.Lock(0)
						p.Write(x, p.Read(x)+1)
						p.Unlock(0)
					}
					if e.epochs {
						err = s.RunEpochs(2, func() EpochFunc { return body })
					} else {
						err = s.Run(func(p *Proc) {
							body(p, 0)
							p.Barrier()
							body(p, 1)
						})
					}
					if err != nil {
						t.Fatal(err)
					}
					if crash && !s.CrashFired(0) {
						t.Error("the crash plan never fired")
					}
					want := w.faults.Lossy() || crash || (e.epochs && e.ckpt)
					if got := s.CarriesSublayer(); got != want {
						t.Errorf("carries the sublayer = %v, want %v", got, want)
					}
					if acks := s.NetStats().Messages[msg.TRelAck]; !want && acks != 0 {
						t.Errorf("%d acknowledgments without the sublayer", acks)
					}
				})
			}
		}
	}
}

// TestRunRefusesCrashPlans: Run never rolls back, so a crash plan could
// only end its run when it fired. Run refuses the plan before anything
// runs, on every wire, and names the entry point that recovers.
func TestRunRefusesCrashPlans(t *testing.T) {
	for _, w := range sublayerWires {
		t.Run(w.name, func(t *testing.T) {
			s, err := New(Config{
				NumProcs: 3, SharedSize: 4096, PageSize: 1024, Detect: true, Faults: w.faults,
				Crashes: []*CrashPlan{{Victim: 1, Epoch: 1, Point: CrashMidInterval}},
			})
			if err != nil {
				t.Fatal(err)
			}
			ran := false
			err = s.Run(func(p *Proc) { ran = true })
			if err == nil || !strings.Contains(err.Error(), "crash plans need RunEpochs") {
				t.Fatalf("Run = %v, want the error that crash plans need RunEpochs", err)
			}
			if ran || s.CrashFired(0) || s.NetStats().TotalMessages() != 0 {
				t.Errorf("Run started the processes (ran %v, crash fired %v, %d messages)",
					ran, s.CrashFired(0), s.NetStats().TotalMessages())
			}
		})
	}
}

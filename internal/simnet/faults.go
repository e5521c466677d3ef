package simnet

import (
	"fmt"
	"math/rand"

	"lrcrace/internal/telemetry"
)

// FaultPlan describes a deterministic, seed-driven unreliable wire: each
// directed link draws from its own PRNG (seeded from Seed and the link's
// endpoints), so the same plan over the same send schedule produces the
// same delivery schedule — the property replay-based detectors (Ronsse &
// De Bosschere, PAPERS.md) depend on, and what makes chaos failures
// reproducible.
//
// Faults model a raw UDP wire, the transport the paper's CVM actually ran
// on: datagrams may be dropped, duplicated, delivered late (reordered past
// later sends on the same link), or delayed by extra latency jitter.
// Self-sends (from == to) are loopback and never faulted.
//
// Drop, duplication, and reordering break the FIFO/reliable contract the
// DSM protocol assumes; run the internal/reliable sublayer on top to
// restore it, exactly as CVM supplies its own end-to-end retransmission
// over UDP.
type FaultPlan struct {
	// Seed drives every per-link PRNG. Two networks with equal plans and
	// equal per-link send schedules fault identically.
	Seed int64

	// Drop is the per-message probability the wire discards a message.
	Drop float64
	// Dup is the per-message probability the wire delivers a message twice.
	Dup float64
	// Reorder is the per-message probability a message is held back and
	// delivered after up to MaxReorder later sends on the same link.
	Reorder float64
	// MaxReorder bounds how many later sends a held message may be
	// delayed past; 0 means 3 when Reorder > 0.
	MaxReorder int
	// JitterNS adds a uniform extra virtual-time latency in [0, JitterNS]
	// to each message (skews arrival times without breaking ordering
	// guarantees on its own).
	JitterNS int64
}

// Lossy reports whether the plan can violate the reliable-FIFO contract
// (as opposed to merely jittering latency).
func (p *FaultPlan) Lossy() bool {
	return p != nil && (p.Drop > 0 || p.Dup > 0 || p.Reorder > 0)
}

// Validate checks the plan's parameters; Network.SetFaults and dsm.New
// both reject a malformed plan through it.
func (p *FaultPlan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"Drop", p.Drop}, {"Dup", p.Dup}, {"Reorder", p.Reorder}} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("simnet: FaultPlan.%s = %v out of [0,1]", pr.name, pr.v)
		}
	}
	if p.MaxReorder < 0 {
		return fmt.Errorf("simnet: FaultPlan.MaxReorder = %d", p.MaxReorder)
	}
	if p.JitterNS < 0 {
		return fmt.Errorf("simnet: FaultPlan.JitterNS = %d", p.JitterNS)
	}
	return nil
}

// faultLink is the injection state of one directed link: its PRNG and the
// messages currently held back for reordering.
type faultLink struct {
	rng  *rand.Rand
	held []heldDelivery
}

// heldDelivery is a message delayed for reordering; after counts the
// subsequent sends on the link that must pass before it is released.
type heldDelivery struct {
	d     Delivery
	after int
}

// SetFaults installs a fault plan. Like SetTelemetry it must be called
// before traffic starts and panics otherwise; it returns an error for a
// malformed plan. A nil plan keeps the wire perfectly reliable.
func (nw *Network) SetFaults(p *FaultPlan) error {
	if p == nil {
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	plan := *p
	if plan.Reorder > 0 && plan.MaxReorder == 0 {
		plan.MaxReorder = 3
	}
	if nw.started {
		panic("simnet: SetFaults after traffic has started")
	}
	nw.faults = &plan
	nw.fault = make([]faultLink, nw.n*nw.n)
	for from := 0; from < nw.n; from++ {
		for to := 0; to < nw.n; to++ {
			nw.fault[from*nw.n+to].rng = rand.New(rand.NewSource(linkSeed(plan.Seed, from, to)))
		}
	}
	return nil
}

// linkSeed mixes the plan seed with the link endpoints (splitmix64-style)
// so every directed link draws an independent deterministic stream.
func linkSeed(seed int64, from, to int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(from*1_000_003+to+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// sendFaulty runs one message through the link's fault injector. The
// fault sequence is a pure function of the link's send order.
func (nw *Network) sendFaulty(to int, d Delivery) {
	from, t := d.From, d.Msg.Type()
	plan := nw.faults
	lf := &nw.fault[from*nw.n+to]

	// Age held messages first: the current send is one more message they
	// are delayed past.
	for i := range lf.held {
		lf.held[i].after--
	}

	if plan.JitterNS > 0 {
		d.VTime += lf.rng.Int63n(plan.JitterNS + 1)
	}

	switch {
	case plan.Drop > 0 && lf.rng.Float64() < plan.Drop:
		nw.stats.Dropped[t]++
		nw.tel.Emit(from, telemetry.KWireDrop, d.VTime, int64(to), int64(t), 0)
	case plan.Dup > 0 && lf.rng.Float64() < plan.Dup:
		nw.arrive(to, d)
		nw.arrive(to, d)
		nw.stats.Duplicated[t]++
		// The extra copy crossed the wire too.
		nw.stats.Messages[t] += int64(d.Frags)
		nw.stats.Bytes[t] += int64(d.Bytes)
		nw.tel.Emit(from, telemetry.KWireDup, d.VTime, int64(to), int64(t), 0)
	case plan.Reorder > 0 && lf.rng.Float64() < plan.Reorder:
		lf.held = append(lf.held, heldDelivery{
			d:     d,
			after: 1 + lf.rng.Intn(plan.MaxReorder),
		})
		nw.stats.Reordered++
		nw.tel.Emit(from, telemetry.KWireReorder, d.VTime, int64(to), int64(t), 0)
	default:
		nw.arrive(to, d)
	}

	// Release held messages whose delay has expired — after the current
	// message, which is what makes them reordered.
	kept := lf.held[:0]
	for _, h := range lf.held {
		if h.after <= 0 {
			nw.arrive(to, h.d)
		} else {
			kept = append(kept, h)
		}
	}
	lf.held = kept
}

// flushHeld delivers every delayed message (link order preserved) so a
// shutdown drains rather than strands them.
func (nw *Network) flushHeld() {
	for i := range nw.fault {
		for _, h := range nw.fault[i].held {
			nw.arrive(i%nw.n, h.d)
		}
		nw.fault[i].held = nil
	}
}

package service

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"time"

	"lrcrace/internal/sweep"
)

// DispatchConfig tunes the multi-node dispatcher.
type DispatchConfig struct {
	// MaxAttempts bounds how many nodes one cell is tried on before it
	// fails; 0 → max(3, 2×nodes).
	MaxAttempts int
	// Backoff is the base redispatch delay after a node failure, doubling
	// per attempt up to MaxBackoff; 0 → 100ms (cap 0 → 2s). Every wait is
	// jittered so failed cells do not stampede the survivors in lockstep.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// BreakerThreshold is how many consecutive failures open a node's
	// circuit breaker; 0 → 3. An open breaker keeps the node out of
	// selection for BreakerCooldown (0 → 2s), after which the next pick
	// health-probes it before trusting it with a cell (half-open).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Rand supplies backoff jitter in [0,1); nil → math/rand.
	Rand func() float64
	// Logf receives dispatch progress (failovers, breaker trips); nil →
	// silent.
	Logf func(format string, args ...interface{})
}

// healthTimeout bounds each health probe.
const healthTimeout = 2 * time.Second

func (c DispatchConfig) withDefaults(nodes int) DispatchConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 2 * nodes
		if c.MaxAttempts < 3 {
			c.MaxAttempts = 3
		}
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.Rand == nil {
		c.Rand = mrand.Float64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

// node is one detection service the dispatcher can assign cells to. All
// mutable state is guarded by the dispatcher's mutex.
type node struct {
	client *Client

	inflight  int       // cells currently assigned here
	consec    int       // consecutive failures (resets on success)
	openUntil time.Time // breaker open until; zero/past → closed
	needProbe bool      // health-check before the next dispatch (half-open)

	dispatched   int64
	failures     int64
	breakerTrips int64
}

// NodeStats is one node's dispatch accounting.
type NodeStats struct {
	Addr         string
	Inflight     int
	Dispatched   int64
	Failures     int64
	BreakerTrips int64
	BreakerOpen  bool
}

// Dispatcher fans sweep cells out across several detection-service nodes:
// each cell goes to the least-loaded live node, and a node failure
// (refused connection, mid-session disconnect, shutdown) re-dispatches
// the cell to a survivor with jittered backoff. Repeatedly failing nodes
// are quarantined by a per-node circuit breaker and re-admitted through a
// health probe. It is an executor, not a pool: sweep.RunWith feeds it
// cells (see Executor) and adopts the results exactly as it adopts a local
// run's, so the output stays byte-identical to a single-node or local
// sweep.
type Dispatcher struct {
	cfg   DispatchConfig
	mu    sync.Mutex
	nodes []*node

	redispatches int64
}

// NewDispatcher builds a dispatcher over the given node addresses
// ("host:port" or full URLs). Every node starts unverified: the first
// pick health-probes it.
func NewDispatcher(addrs []string, cfg DispatchConfig) *Dispatcher {
	d := &Dispatcher{cfg: cfg.withDefaults(len(addrs))}
	for _, a := range addrs {
		d.nodes = append(d.nodes, &node{client: NewClient(a), needProbe: true})
	}
	return d
}

// Tenant stamps every node client with a tenant identity (see
// Client.Tenant).
func (d *Dispatcher) Tenant(t string) *Dispatcher {
	for _, n := range d.nodes {
		n.client.Tenant = t
	}
	return d
}

// Stats returns per-node dispatch accounting, in configuration order.
func (d *Dispatcher) Stats() []NodeStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	out := make([]NodeStats, 0, len(d.nodes))
	for _, n := range d.nodes {
		out = append(out, NodeStats{
			Addr: n.client.Base, Inflight: n.inflight,
			Dispatched: n.dispatched, Failures: n.failures,
			BreakerTrips: n.breakerTrips, BreakerOpen: n.openUntil.After(now),
		})
	}
	return out
}

// Redispatches returns how many cell attempts were moved to another node
// after a failure.
func (d *Dispatcher) Redispatches() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.redispatches
}

// pick selects the least-loaded node whose breaker is closed, reserving
// an inflight slot. A node coming out of cooldown is health-probed first
// (half-open); a failed probe re-trips its breaker and selection moves
// on. When every breaker is open, pick waits for the earliest cooldown.
func (d *Dispatcher) pick(ctx context.Context) (*node, error) {
	for {
		d.mu.Lock()
		now := time.Now()
		var best *node
		var earliest time.Time
		for _, n := range d.nodes {
			if n.openUntil.After(now) {
				if earliest.IsZero() || n.openUntil.Before(earliest) {
					earliest = n.openUntil
				}
				continue
			}
			if best == nil || n.inflight < best.inflight {
				best = n
			}
		}
		if best == nil {
			d.mu.Unlock()
			if earliest.IsZero() {
				return nil, errors.New("service: dispatch: no nodes configured")
			}
			select {
			case <-time.After(time.Until(earliest) + 10*time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			continue
		}
		probe := best.needProbe
		best.inflight++
		d.mu.Unlock()
		if probe {
			hctx, cancel := context.WithTimeout(ctx, healthTimeout)
			err := best.client.Health(hctx)
			cancel()
			if err != nil {
				d.release(best)
				d.noteFailure(best, err)
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				continue
			}
			d.mu.Lock()
			best.needProbe = false
			best.consec = 0
			d.mu.Unlock()
		}
		return best, nil
	}
}

func (d *Dispatcher) release(n *node) {
	d.mu.Lock()
	n.inflight--
	d.mu.Unlock()
}

func (d *Dispatcher) noteSuccess(n *node) {
	d.mu.Lock()
	n.consec = 0
	n.dispatched++
	d.mu.Unlock()
}

func (d *Dispatcher) noteFailure(n *node, err error) {
	d.mu.Lock()
	n.consec++
	n.failures++
	tripped := false
	if n.consec >= d.cfg.BreakerThreshold && !n.openUntil.After(time.Now()) {
		n.openUntil = time.Now().Add(d.cfg.BreakerCooldown)
		n.needProbe = true
		n.breakerTrips++
		tripped = true
	}
	d.mu.Unlock()
	if tripped {
		d.cfg.Logf("dispatch: node %s breaker open for %v after %d consecutive failures (last: %v)",
			n.client.Base, d.cfg.BreakerCooldown, d.cfg.BreakerThreshold, err)
	}
}

// RunCell runs one cell with failover: pick a node, run, and on node
// failure (anything but an admission-time *RequestError) re-dispatch to
// another pick after a jittered, doubling backoff, up to MaxAttempts.
func (d *Dispatcher) RunCell(ctx context.Context, cell sweep.Cell, faults *sweep.FaultAxis, realMsgDelayUS int64) (*sweep.CellResult, error) {
	backoff := d.cfg.Backoff
	for attempt := 1; ; attempt++ {
		n, err := d.pick(ctx)
		if err != nil {
			return nil, err
		}
		res, err := n.client.RunCell(ctx, cell, faults, realMsgDelayUS)
		d.release(n)
		if err == nil {
			d.noteSuccess(n)
			return res, nil
		}
		var reqErr *RequestError
		if errors.As(err, &reqErr) {
			// The node is healthy; the request itself can never run. No
			// other node will accept it either.
			d.noteSuccess(n)
			return nil, err
		}
		d.noteFailure(n, err)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if attempt >= d.cfg.MaxAttempts {
			return nil, fmt.Errorf("service: dispatch: cell %s failed on %d attempts, last node %s: %w",
				cell.ID, attempt, n.client.Base, err)
		}
		d.mu.Lock()
		d.redispatches++
		d.mu.Unlock()
		wait := backoff + time.Duration(float64(backoff)*d.cfg.Rand())
		d.cfg.Logf("dispatch: cell %s failed on %s (%v); re-dispatching in %v (attempt %d/%d)",
			cell.ID, n.client.Base, err, wait.Round(time.Millisecond), attempt+1, d.cfg.MaxAttempts)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if backoff *= 2; backoff > d.cfg.MaxBackoff {
			backoff = d.cfg.MaxBackoff
		}
	}
}

// Executor is the dispatcher as a sweep executor for plan's cells: RunCell
// under the plan-level fault template and message-delay override the grid
// was expanded with.
func (d *Dispatcher) Executor(plan *sweep.Plan) sweep.Executor {
	return func(ctx context.Context, c sweep.Cell) (*sweep.CellResult, error) {
		return d.RunCell(ctx, c, plan.Faults, plan.RealMsgDelayUS)
	}
}

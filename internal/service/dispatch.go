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
	// MaxAttempts bounds how many node failures one cell survives before
	// it fails; 0 → max(3, 2×nodes). Admission rejections (a full queue, a
	// tenant quota) do not count: the cell never ran.
	MaxAttempts int
	// Backoff is the base delay before a cell is tried again, after a node
	// failure or an admission rejection alike, doubling per retry up to
	// MaxBackoff; 0 → 100ms (cap 0 → 2s). A server's Retry-After replaces
	// the base. Every wait is jittered so retried cells do not stampede
	// the nodes in lockstep.
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
	rejections   int64
	breakerTrips int64
}

// NodeStats is one node's dispatch accounting. Rejections counts the
// node's admission rejections (full queue, tenant quota): the node was
// healthy but busy, so they never count toward its breaker.
type NodeStats struct {
	Addr         string
	Inflight     int
	Dispatched   int64
	Failures     int64
	Rejections   int64
	BreakerTrips int64
	BreakerOpen  bool
}

// Dispatcher fans sweep cells out across several detection-service nodes:
// each cell goes to the least-loaded live node, and a node failure
// (refused connection, mid-session disconnect, shutdown) or a busy node's
// admission rejection sends the cell to another node with jittered
// backoff. Repeatedly failing nodes are quarantined by a per-node circuit
// breaker and re-admitted through a health probe. Its RunCell loop is the
// only place a remote cell is retried; the Client under it makes one
// attempt. It is an executor, not a pool: sweep.RunWith feeds it cells
// (see Executor) and adopts the results exactly as it adopts a local
// run's, so the output stays byte-identical to a single-node or local
// sweep.
type Dispatcher struct {
	cfg   DispatchConfig
	mu    sync.Mutex
	nodes []*node
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
			Dispatched: n.dispatched, Failures: n.failures, Rejections: n.rejections,
			BreakerTrips: n.breakerTrips, BreakerOpen: n.openUntil.After(now),
		})
	}
	return out
}

// pick selects the least-loaded node whose breaker is closed, reserving
// an inflight slot. A retried cell passes the node its last attempt ran
// on as avoid, which is picked only when no other node is eligible. A
// node coming out of cooldown is health-probed first (half-open); a
// failed probe re-trips its breaker and selection moves on. When every
// breaker is open, pick waits for the earliest cooldown.
func (d *Dispatcher) pick(ctx context.Context, avoid *node) (*node, error) {
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
			if best == nil || best == avoid || (n != avoid && n.inflight < best.inflight) {
				best = n
			}
		}
		if best == nil {
			d.mu.Unlock()
			if earliest.IsZero() {
				return nil, errors.New("service: dispatch: no nodes configured")
			}
			if err := sleep(ctx, time.Until(earliest)+10*time.Millisecond); err != nil {
				return nil, err
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
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				d.noteFailure(best, err)
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

// RunCell runs one cell, and is the one retry loop a remote cell has:
// pick a node and make one attempt there (Client.RunCell), then act on
// how it ended. A result, or an admission-time *RequestError (no node will
// ever run the request), ends the loop. A busy node's admission rejection
// (*OverloadError, *QuotaError) is not charged to the node and does not
// use up an attempt. Anything else is a node failure, charged to the
// node's breaker, and the cell fails once it has seen MaxAttempts of
// them. Either way the cell waits a jittered, doubling backoff, or the
// server's Retry-After, and is sent to another node if one is eligible.
func (d *Dispatcher) RunCell(ctx context.Context, cell sweep.Cell) (*sweep.CellResult, error) {
	backoff := d.cfg.Backoff
	var n *node
	for failures := 0; ; {
		var err error
		if n, err = d.pick(ctx, n); err != nil {
			return nil, err
		}
		res, err := n.client.RunCell(ctx, cell)
		d.release(n)
		var reqErr *RequestError
		retryAfter, busy := rejection(err)
		switch {
		case err == nil || errors.As(err, &reqErr):
			d.noteSuccess(n)
			return res, err
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case busy:
			d.mu.Lock()
			n.rejections++
			d.mu.Unlock()
		default:
			d.noteFailure(n, err)
			if failures++; failures >= d.cfg.MaxAttempts {
				return nil, fmt.Errorf("service: dispatch: cell %s failed on %d attempts, last node %s: %w",
					cell.ID, failures, n.client.Base, err)
			}
		}
		wait := backoff
		if retryAfter > 0 {
			wait = retryAfter
		}
		wait += time.Duration(float64(wait) * d.cfg.Rand())
		d.cfg.Logf("dispatch: cell %s: %s: %v; retrying in %v (%d/%d node failures)",
			cell.ID, n.client.Base, err, wait.Round(time.Millisecond), failures, d.cfg.MaxAttempts)
		if err := sleep(ctx, wait); err != nil {
			return nil, err
		}
		if backoff *= 2; backoff > d.cfg.MaxBackoff {
			backoff = d.cfg.MaxBackoff
		}
	}
}

// rejection reports whether err is a busy node's admission rejection — a
// full queue or a tenant at its quota, both of which clear as sessions
// finish — and the server's Retry-After when it sent one.
func rejection(err error) (time.Duration, bool) {
	var ovl *OverloadError
	if errors.As(err, &ovl) {
		return ovl.RetryAfter, true
	}
	var quo *QuotaError
	if errors.As(err, &quo) {
		return quo.RetryAfter, true
	}
	return 0, false
}

// sleep waits for d, or returns ctx's error if it ends first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Executor is the dispatcher as a sweep executor: RunCell for each cell. A
// cell cut short by ctx comes back as neither result nor error, as
// sweep.Executor asks, so the cell stays pending and the sweep reports the
// cancellation rather than a failed cell.
func (d *Dispatcher) Executor() sweep.Executor {
	return func(ctx context.Context, c sweep.Cell) (*sweep.CellResult, error) {
		res, err := d.RunCell(ctx, c)
		if err != nil && ctx.Err() != nil {
			return nil, nil
		}
		return res, err
	}
}

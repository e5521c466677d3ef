// Package kv provides the Go-frontend workload family: a mutex-sharded
// key/value store with expiry ("KV") and a channel-actor session store
// ("Sessions"). Both register with the gofront workload registry the same
// way the DSM benchmarks register with the apps registry, and both can
// plant a realistic racy fast path — an unsynchronized hot-key read — that
// the interval detector must find and the fixed variant must not exhibit.
package kv

import (
	"fmt"
	"math/rand"

	"lrcrace/internal/gofront"
	"lrcrace/internal/mem"
)

func init() {
	gofront.RegisterWorkload("KV",
		"mutex-sharded key/value store with expiry janitor; racy = lock-free hot-key get",
		RunKV)
	gofront.RegisterWorkload("Sessions",
		"channel-actor session store; racy = client bypasses the owner actor",
		RunSessions)
}

const (
	kvKeys    = 64 // keyspace size (words)
	kvShards  = 4  // one mutex per shard; key k belongs to shard k%kvShards
	kvHotKeys = 4  // the skewed "hot" head of the keyspace
	kvDefOps  = 48 // default ops per client before Scale

	maxGs = 16 // gofront default goroutine budget
)

// hotOrUniform picks a key: with probability skew from the hot head of the
// keyspace, else uniform.
func hotOrUniform(rng *rand.Rand, skew float64) int {
	if rng.Float64() < skew {
		return rng.Intn(kvHotKeys)
	}
	return rng.Intn(kvKeys)
}

// RunKV drives the sharded KV store: cfg.Clients goroutines issue a seeded
// get/put/expire mix against kvShards mutex-protected shards while a
// janitor goroutine sweeps expired entries, paced by ticks on a buffered
// channel and stopped by closing it. With cfg.Racy, gets of hot keys skip
// the shard lock — the classic "read-mostly fast path" race.
func RunKV(cfg gofront.WorkloadConfig) (*gofront.Result, error) {
	if cfg.Clients+2 > maxGs {
		return nil, fmt.Errorf("kv: %d clients exceed the goroutine budget (max %d)", cfg.Clients, maxGs-2)
	}
	ops := cfg.OpsOrDefault(kvDefOps)

	p := gofront.New(gofront.Config{
		MaxGs:    cfg.Clients + 2, // clients + janitor + root
		Seed:     cfg.Seed,
		Detect:   cfg.Detect,
		Recorder: cfg.Recorder,
	})
	vals := p.Alloc("kv.val", kvKeys)
	meta := p.Alloc("kv.meta", kvKeys)
	word := func(base mem.Addr, k int) mem.Addr { return base + mem.Addr(k*mem.WordSize) }
	locks := make([]*gofront.Mutex, kvShards)
	for i := range locks {
		locks[i] = p.NewMutex()
	}
	ticks := p.NewChan(2)
	wg := p.NewWaitGroup()

	client := func(id int) func(*gofront.G) {
		return func(g *gofront.G) {
			rng := p.Rand(cfg.Seed*1000003 + int64(id))
			for i := 0; i < ops; i++ {
				k := hotOrUniform(rng, cfg.HotKeySkew)
				mu := locks[k%kvShards]
				switch op := rng.Intn(10); {
				case op < 6: // get
					if cfg.Racy && k < kvHotKeys {
						// Planted race: hot-key read outside the shard lock.
						g.Load(word(vals, k))
						break
					}
					mu.Lock(g)
					g.Load(word(vals, k))
					mu.Unlock(g)
				case op < 9: // put
					mu.Lock(g)
					g.Store(word(vals, k), uint64(id*1000+i))
					g.Store(word(meta, k), uint64(i+1))
					mu.Unlock(g)
				default: // expire now
					mu.Lock(g)
					g.Store(word(vals, k), 0)
					g.Store(word(meta, k), 0)
					mu.Unlock(g)
				}
			}
			wg.Done(g)
		}
	}

	janitor := func(g *gofront.G) {
		for {
			tick, ok := ticks.Recv(g)
			if !ok {
				return
			}
			for s := 0; s < kvShards; s++ {
				locks[s].Lock(g)
				for k := s; k < kvKeys; k += kvShards {
					if g.Load(word(meta, k)) != 0 && g.Load(word(meta, k)) < tick {
						g.Store(word(vals, k), 0)
						g.Store(word(meta, k), 0)
					}
				}
				locks[s].Unlock(g)
			}
		}
	}

	res := p.Run(func(g *gofront.G) {
		j := g.Go(janitor)
		kids := make([]*gofront.G, cfg.Clients)
		for c := 0; c < cfg.Clients; c++ {
			wg.Add(g, 1)
			kids[c] = g.Go(client(c))
		}
		// Pace the janitor concurrently with client traffic, then stop it.
		for t := 1; t <= 3; t++ {
			ticks.Send(g, uint64(t*ops/4))
		}
		ticks.Close(g)
		for _, k := range kids {
			g.Join(k)
		}
		wg.Wait(g)
		g.Join(j)
	})
	return res, nil
}

const (
	sesActors = 4
	sesPerOwn = kvKeys / sesActors // contiguous key range per owner actor
	sesDefOps = 32
)

// RunSessions drives the actor-owned session store: each of sesActors owner
// goroutines serializes all access to its contiguous key range, clients
// round-trip get/put requests over buffered channels and receive replies on
// a private rendezvous channel. With cfg.Racy, hot-key gets read the
// session word directly instead of asking the owner — racing the owner's
// writes.
func RunSessions(cfg gofront.WorkloadConfig) (*gofront.Result, error) {
	if cfg.Clients+sesActors+1 > maxGs {
		return nil, fmt.Errorf("kv: %d clients exceed the goroutine budget (max %d)", cfg.Clients, maxGs-sesActors-1)
	}
	ops := cfg.OpsOrDefault(sesDefOps)

	p := gofront.New(gofront.Config{
		MaxGs:    cfg.Clients + sesActors + 1,
		Seed:     cfg.Seed,
		Detect:   cfg.Detect,
		Recorder: cfg.Recorder,
	})
	sessions := p.Alloc("sessions", kvKeys)
	word := func(k int) mem.Addr { return sessions + mem.Addr(k*mem.WordSize) }

	reqs := make([]*gofront.Chan, sesActors)
	for i := range reqs {
		reqs[i] = p.NewChan(4)
	}
	replies := make([]*gofront.Chan, cfg.Clients)
	for i := range replies {
		replies[i] = p.NewChan(0)
	}
	wg := p.NewWaitGroup()

	// Request encoding: op<<32 | client<<16 | key.
	const opPut = 1
	pack := func(op, client, key int) uint64 {
		return uint64(op)<<32 | uint64(client)<<16 | uint64(key)
	}

	actor := func(id int) func(*gofront.G) {
		return func(g *gofront.G) {
			for {
				req, ok := reqs[id].Recv(g)
				if !ok {
					return
				}
				op, client, key := int(req>>32), int(req>>16&0xffff), int(req&0xffff)
				if op == opPut {
					g.Store(word(key), req)
				} else {
					replies[client].Send(g, g.Load(word(key)))
				}
			}
		}
	}

	client := func(id int) func(*gofront.G) {
		return func(g *gofront.G) {
			rng := p.Rand(cfg.Seed*1000033 + int64(id))
			for i := 0; i < ops; i++ {
				k := hotOrUniform(rng, cfg.HotKeySkew)
				owner := k / sesPerOwn
				if rng.Intn(10) < 7 { // get
					if cfg.Racy && k < kvHotKeys {
						// Planted race: bypass the owner actor.
						g.Load(word(k))
						continue
					}
					reqs[owner].Send(g, pack(0, id, k))
					replies[id].Recv(g)
				} else { // put
					reqs[owner].Send(g, pack(opPut, id, k))
				}
			}
			wg.Done(g)
		}
	}

	res := p.Run(func(g *gofront.G) {
		actors := make([]*gofront.G, sesActors)
		for a := range actors {
			actors[a] = g.Go(actor(a))
		}
		kids := make([]*gofront.G, cfg.Clients)
		for c := 0; c < cfg.Clients; c++ {
			wg.Add(g, 1)
			kids[c] = g.Go(client(c))
		}
		for _, k := range kids {
			g.Join(k)
		}
		wg.Wait(g)
		for _, ch := range reqs {
			ch.Close(g)
		}
		for _, a := range actors {
			g.Join(a)
		}
	})
	return res, nil
}

package dsm

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"lrcrace/internal/castore"
	"lrcrace/internal/mem"
)

// sorScenario is SOR's shape on the single-writer protocol: a grid in row
// bands, one band per process, relaxed red/black — each epoch rewrites half
// of a band's rows from the rows above and below (the neighbours' boundary
// rows included) and leaves the other half, and the pages past the grid,
// byte-identical to the previous epoch.
func sorScenario() recoveryScenario {
	const rows, cols = 32, 32 // 8 KiB of the 16 KiB segment: 8 of 16 pages
	return recoveryScenario{
		name:   "sor",
		proto:  SingleWriter,
		epochs: 4,
		setup: func(t *testing.T, s *System) func() EpochFunc {
			grid, err := s.AllocWords("grid", rows*cols)
			if err != nil {
				t.Fatal(err)
			}
			at := func(r, c int) mem.Addr { return grid + mem.Addr((r*cols+c)*mem.WordSize) }
			return func() EpochFunc {
				return func(p *Proc, e int32) {
					band := rows / p.N()
					for r := p.ID() * band; r < (p.ID()+1)*band; r++ {
						if r == 0 || r == rows-1 || r%2 != int(e)%2 {
							continue
						}
						for c := 1; c < cols-1; c++ {
							p.Write(at(r, c), p.Read(at(r-1, c))+p.Read(at(r+1, c))+uint64(e)+1)
						}
					}
				}
			}
		},
	}
}

// waterScenario is Water's shape on the multi-writer protocol: per-process
// molecule slots on shared pages (false sharing, twins and diffs), a force
// array every process accumulates into under per-group locks, and
// unsynchronized reads of the neighbour's slots.
func waterScenario() recoveryScenario {
	const mols, groups = 64, 4
	return recoveryScenario{
		name:   "water",
		proto:  MultiWriter,
		epochs: 4,
		setup: func(t *testing.T, s *System) func() EpochFunc {
			pos, err := s.AllocWords("pos", mols)
			if err != nil {
				t.Fatal(err)
			}
			force, err := s.AllocWords("force", 4*mols) // spans several pages
			if err != nil {
				t.Fatal(err)
			}
			word := func(base mem.Addr, i int) mem.Addr { return base + mem.Addr(i*mem.WordSize) }
			return func() EpochFunc {
				return func(p *Proc, e int32) {
					per := mols / p.N()
					for i := p.ID() * per; i < (p.ID()+1)*per; i++ {
						p.Write(word(pos, i), p.Read(word(pos, (i+per)%mols))+uint64(e))
					}
					for g := 0; g < groups; g++ {
						if (g+int(e))%2 == 0 {
							continue // half the groups rest each epoch
						}
						p.Lock(g)
						for k := 0; k < 3; k++ {
							a := word(force, g*mols+(p.ID()*7+k*5)%mols)
							p.Write(a, p.Read(a)+1)
						}
						p.Unlock(g)
					}
				}
			}
		},
	}
}

// TestCheckpointHintsChangeNothing: the per-page remembered chunk keys and
// their clean marks are an accelerator only. A run deposits exactly the
// checkpoints, manifests and chunk references, that the same run deposits
// with every page dirty at every barrier — across a rollback too, where the
// restored processes start clean at the keys they were decoded from — and
// its chunk store accounts for them the same bar the fingerprints saved.
// And every deposited checkpoint re-encodes to itself from a process
// decoded from it, clean (every page re-referenced, none fingerprinted)
// and all dirty alike.
func TestCheckpointHintsChangeNothing(t *testing.T) {
	crashes := map[string]func() *CrashPlan{
		"crash-free": func() *CrashPlan { return nil },
		"rollback":   func() *CrashPlan { return &CrashPlan{Victim: 2, Epoch: 2, Point: CrashMidInterval, AfterN: 3} },
	}
	for _, sc := range []recoveryScenario{sorScenario(), waterScenario()} {
		for cname, plan := range crashes {
			sc := sc
			t.Run(sc.name+"/"+cname, func(t *testing.T) {
				crash := plan()
				s := sc.run(t, crash)
				if crash != nil {
					if rs := s.RecoveryStats(); rs.Recoveries != 1 || rs.LastEpoch != crash.Epoch {
						t.Fatalf("recovery stats %+v, want one rollback to epoch %d", rs, crash.Epoch)
					}
				}
				dirty := recoverySys(t, 4, sc.proto, plan(), nil)
				dirty.CheckpointAllDirty()
				if err := dirty.RunEpochs(sc.epochs, sc.setup(t, dirty)); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(s.ckpts.byProc, dirty.ckpts.byProc) {
					t.Fatal("checkpoints differ from the all-dirty run's")
				}
				got, want := s.ChunkStats(), dirty.ChunkStats()
				if got.Hashed >= want.Hashed {
					t.Errorf("fingerprinted %d chunks, %d all dirty: want fewer", got.Hashed, want.Hashed)
				}
				got.Hashed, want.Hashed = 0, 0
				if got != want {
					t.Fatalf("chunk store accounting differs:\n dirty set %+v\n all dirty %+v", got, want)
				}

				twin := recoverySys(t, 4, sc.proto, nil, nil)
				chunks := s.ckpts.Chunks()
				for proc := 0; proc < 4; proc++ {
					for epoch := int32(1); epoch <= sc.epochs; epoch++ {
						stored, ok := s.ckpts.byProc[proc][epoch]
						if !ok {
							t.Fatalf("no checkpoint for proc %d epoch %d", proc, epoch)
						}
						fresh, err := decodeIntoTwin(twin, proc, stored.manifest, chunks)
						if err != nil {
							t.Fatalf("proc %d epoch %d: %v", proc, epoch, err)
						}
						pages := int64(0) // page copies in the checkpoint
						for _, clean := range fresh.ckptClean {
							if clean {
								pages++
							}
						}
						type encoding struct {
							cst   ckptChunkStats
							delta castore.Stats
						}
						var hashed int64 // by the last encode
						encode := func(what string) encoding {
							before := chunks.Stats()
							manifest, keys, cst := fresh.encodeCheckpointInto(chunks)
							after := chunks.Stats()
							for _, k := range keys {
								chunks.Unref(k)
							}
							if !bytes.Equal(manifest, stored.manifest) {
								t.Fatalf("proc %d epoch %d, %s: manifest differs from the one the run deposited", proc, epoch, what)
							}
							if !slices.Equal(keys, stored.keys) {
								t.Fatalf("proc %d epoch %d, %s: chunk references differ", proc, epoch, what)
							}
							hashed = after.Hashed - before.Hashed
							return encoding{cst, castore.Stats{
								Puts: after.Puts - before.Puts, Hits: after.Hits - before.Hits,
								StoredBytes: after.StoredBytes - before.StoredBytes, LogicalBytes: after.LogicalBytes - before.LogicalBytes,
								Heals: after.Heals - before.Heals, Chunks: after.Chunks - before.Chunks, LiveBytes: after.LiveBytes - before.LiveBytes,
							}}
						}
						clean := encode("clean")
						cleanHashed := hashed
						clear(fresh.ckptClean)
						allDirty := encode("all dirty")
						if want := hashed - pages; pages == 0 || cleanHashed != want {
							t.Errorf("proc %d epoch %d: clean encode fingerprinted %d chunks, want %d (%d pages re-referenced)", proc, epoch, cleanHashed, want, pages)
						}
						if clean != allDirty {
							t.Fatalf("proc %d epoch %d: accounting differs:\n clean     %+v\n all dirty %+v", proc, epoch, clean, allDirty)
						}
						if clean.delta.Puts == 0 || clean.delta.Hits != clean.delta.Puts || clean.delta.Heals != 0 {
							t.Fatalf("proc %d epoch %d: re-encoding resident state: %+v, want all hits", proc, epoch, clean.delta)
						}
					}
				}
			})
		}
	}
}

// TestAccessPathAllocs: with detection on, a shared access to a page that is
// resident (and, for writes, already write-faulted in this interval) is
// index arithmetic and bit-sets under the process lock — no allocation. The
// first write to a page the process has never held allocates its frame,
// exactly one; a read of such a page allocates none.
func TestAccessPathAllocs(t *testing.T) {
	bothProtocols(t, func(t *testing.T, proto ProtocolKind) {
		s := newSys(t, 4, proto, true)
		p := newProc(s, 0)
		// Pages 0, 4 and 8 are homed at process 0: owned (single-writer) or
		// the always-current home copy (multi-writer); no message is needed.
		addrs := []mem.Addr{s.layout.PageBase(0) + 16, s.layout.PageBase(4), s.layout.PageBase(0) + 512}
		if f := p.seg.Resident(); f != 0 {
			t.Fatalf("a new process holds %d frames, want 0", f)
		}
		if v := p.Read(s.layout.PageBase(8)); v != 0 || p.seg.Resident() != 0 {
			t.Fatalf("read of a page never held: %d with %d frames, want 0 with none", v, p.seg.Resident())
		}
		for i, a := range addrs {
			p.Write(a, 1)
			p.Read(a)
			if want := min(i+1, 2); p.seg.Resident() != want {
				t.Fatalf("after touching %d addresses on 2 pages: %d frames, want %d", i+1, p.seg.Resident(), want)
			}
		}
		i := 0
		if n := testing.AllocsPerRun(1000, func() {
			a := addrs[i%len(addrs)]
			p.Write(a, p.Read(a)+1)
			i++
		}); n != 0 {
			t.Errorf("Proc.Read+Proc.Write on resident pages: %v allocs per run, want 0", n)
		}
		if st := p.Stats(); st.SharedReads < 1000 || st.WriteFaults != 2 {
			t.Errorf("stats %+v: want ≥1000 reads and exactly the 2 first-touch write faults", st)
		}
		if p.seg.Resident() != 2 {
			t.Errorf("%d frames after the loop, want 2", p.seg.Resident())
		}

		// Without detection's per-interval bitmaps, the first write to a
		// page never held allocates the frame and nothing else (once the
		// write-fault list has grown).
		cfg := smallConfig(4, proto, false)
		cfg.SharedSize = 64 * cfg.PageSize
		qs, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		q := newProc(qs, 0)
		var fresh []mem.PageID // homed at process 0
		for pg := mem.PageID(0); int(pg) < q.seg.NumPages; pg += 4 {
			fresh = append(fresh, pg)
			q.writtenPages.add(pg)
		}
		q.writtenPages.clear()
		next := 0
		if n := testing.AllocsPerRun(len(fresh)-1, func() {
			q.Write(q.seg.PageBase(fresh[next])+8, 1)
			next++
		}); n != 1 {
			t.Errorf("first write to a page never held: %v allocs per run, want 1 (the frame)", n)
		}
		if q.seg.Resident() != len(fresh) {
			t.Errorf("%d frames after writing %d pages", q.seg.Resident(), len(fresh))
		}
	})
}

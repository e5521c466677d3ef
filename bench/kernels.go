package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lrcrace/internal/castore"
	"lrcrace/internal/dsm"
	"lrcrace/internal/harness"
	"lrcrace/internal/hbdet"
	"lrcrace/internal/instr"
	"lrcrace/internal/interval"
	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/race"
	"lrcrace/internal/reliable"
	"lrcrace/internal/service"
	"lrcrace/internal/simnet"
	"lrcrace/internal/sweep"
	"lrcrace/internal/telemetry"
	"lrcrace/internal/vc"
)

// Kernel drivers: each times calls into one layer's public functions on
// seeded synthetic inputs. They run in traced runs only, after the timed
// region, and do not depend on the workload.

// sink keeps the compiler from discarding a kernel's result.
var sink uint64

// kernelRunner collects the drivers' results.
type kernelRunner struct {
	e   *env
	rng *rand.Rand
	out map[string]sample
	err error // first driver failure
}

const kernelBatches = 7

// fail records the first driver failure; later drivers still run.
func (k *kernelRunner) fail(name string, err error) {
	if k.err == nil {
		k.err = fmt.Errorf("kernel %s: %w", name, err)
	}
}

// put records the median of samples under name.
func (k *kernelRunner) put(name string, samples []float64) {
	k.out[name] = sample{Value: median(samples), N: len(samples)}
}

// loop times fn, which performs n operations per call, and returns ns per
// operation for each of a few batches sized to ~2 ms. allocs, when
// non-empty, also records heap allocations per operation under that name.
func (k *kernelRunner) loop(allocs string, fn func(n int)) []float64 {
	n, batches := 1, kernelBatches
	if k.e.tiny {
		batches = 1
	} else {
		for {
			t0 := time.Now()
			fn(n)
			if d := time.Since(t0); d >= 2*time.Millisecond || n >= 1<<24 {
				break
			}
			n *= 2
		}
	}
	out := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		fn(n)
		out = append(out, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	if allocs != "" {
		// The runtime's own goroutines allocate too, which only ever adds:
		// take the least of five batches, to a tenth.
		least := math.Inf(1)
		for b := 0; b < 5; b++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			fn(n)
			runtime.ReadMemStats(&m1)
			least = math.Min(least, float64(m1.Mallocs-m0.Mallocs)/float64(n))
		}
		k.out[allocs] = sample{Value: math.Round(least*10) / 10, N: 5}
	}
	return out
}

// each times op call by call, with prep (untimed) before every call, for
// operations of a microsecond or more; it stops after maxOps calls or the
// time budget. The result is ns per call.
func (k *kernelRunner) each(maxOps int, prep, op func()) []float64 {
	budget := 60 * time.Millisecond
	if k.e.tiny {
		maxOps = 2
	}
	var out []float64
	start := time.Now()
	for i := 0; i < maxOps && (i < 3 || time.Since(start) < budget); i++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		op()
		out = append(out, float64(time.Since(t0).Nanoseconds()))
	}
	return out
}

func scaled(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}

// runKernels runs every driver once.
func runKernels(e *env) (map[string]sample, error) {
	k := &kernelRunner{e: e, rng: rand.New(rand.NewSource(e.seed)), out: map[string]sample{}}
	sp := e.tr.begin("kernels", -1, 0, 0)
	for _, d := range []struct {
		name string
		run  func()
	}{
		{"vc+mem", k.vcAndBitmaps},
		{"interval", k.intervals},
		{"instr+hbdet", k.checkers},
		{"castore", k.chunkStore},
		{"msg", k.codec},
		{"transports", k.transports},
		{"race", k.detector},
		{"dsm.access", k.dsmAccess},
		{"dsm.sync", k.dsmSync},
		{"telemetry", k.telemetry},
		{"store", k.reportStore},
		{"seglog", k.segLog},
		{"harness+sweep", k.harnessAndSweep},
		{"service.inproc", k.inprocSessions},
	} {
		s := e.tr.begin("kernel "+d.name, sp, 0, 0)
		d.run()
		e.tr.end(s)
	}
	e.tr.end(sp)
	return k.out, k.err
}

// --- vc, mem ---

func (k *kernelRunner) vcAndBitmaps() {
	const n = 8
	a, b := vc.IntervalID{Proc: 0, Index: 5}, vc.IntervalID{Proc: 1, Index: 7}
	avc, bvc := vc.New(n), vc.New(n)
	for i := range avc {
		avc[i], bvc[i] = vc.Index(k.rng.Intn(9)), vc.Index(k.rng.Intn(9))
	}
	avc[0], bvc[1] = 5, 7
	k.put("vc.concurrent_ns", k.loop("", func(n int) {
		c := 0
		for i := 0; i < n; i++ {
			if vc.Concurrent(a, avc, b, bvc) {
				c++
			}
		}
		sink += uint64(c)
	}))
	dst := avc.Copy()
	k.put("vc.merge_ns", k.loop("", func(n int) {
		for i := 0; i < n; i++ {
			dst.Merge(bvc)
		}
		sink += uint64(dst[0])
	}))

	words := mem.DefaultPageSize / mem.WordSize
	x, y := mem.NewBitmap(words), mem.NewBitmap(words)
	for i := 0; i < words; i += 7 {
		x.Set(i)
	}
	for i := 3; i < words; i += 11 {
		y.Set(i)
	}
	k.put("mem.bitmap_intersects_ns", k.loop("", func(n int) {
		c := 0
		for i := 0; i < n; i++ {
			if x.Intersects(y) {
				c++
			}
		}
		sink += uint64(c)
	}))
	var ov []int
	k.put("mem.bitmap_overlap_ns", k.loop("", func(n int) {
		for i := 0; i < n; i++ {
			ov = x.Overlap(y, ov[:0])
		}
		sink += uint64(len(ov))
	}))
}

// --- interval ---

// syntheticEpoch builds one epoch of interval records with random notices:
// nproc processes, perProc intervals each, mutually unordered.
func (k *kernelRunner) syntheticEpoch(nproc, perProc, pages, noticeLen int) []*interval.Record {
	var recs []*interval.Record
	for p := 0; p < nproc; p++ {
		for i := 1; i <= perProc; i++ {
			rec := &interval.Record{ID: vc.IntervalID{Proc: p, Index: vc.Index(i)}, VC: vc.New(nproc)}
			rec.VC[p] = vc.Index(i)
			for _, pg := range k.rng.Perm(pages)[:noticeLen] {
				rec.WriteNotices = append(rec.WriteNotices, mem.PageID(pg))
			}
			for _, pg := range k.rng.Perm(pages)[:noticeLen] {
				rec.ReadNotices = append(rec.ReadNotices, mem.PageID(pg))
			}
			interval.SortPages(rec.WriteNotices)
			interval.SortPages(rec.ReadNotices)
			recs = append(recs, rec)
		}
	}
	return recs
}

// chainedEpoch builds an epoch in which lock chains order most pairs:
// interval i of process p has seen everything up to (p, i).
func chainedEpoch(nproc, perProc int) []*interval.Record {
	var recs []*interval.Record
	cur := vc.New(nproc)
	for i := 1; i <= perProc; i++ {
		for p := 0; p < nproc; p++ {
			cur[p] = vc.Index(i)
			recs = append(recs, &interval.Record{ID: vc.IntervalID{Proc: p, Index: vc.Index(i)}, VC: cur.Copy()})
		}
	}
	return recs
}

func (k *kernelRunner) intervals() {
	const pages = 64
	l, err := mem.NewLayout(pages*mem.DefaultPageSize, mem.DefaultPageSize)
	if err != nil {
		k.fail("interval", err)
		return
	}
	b := interval.NewBuilder(l)
	size := l.Size()
	k.put("interval.note_ns", k.loop("", func(n int) {
		for i := 0; i < n; i++ {
			a := mem.Addr(i * 520 % size &^ 7) // walks words and pages
			if i&1 == 0 {
				b.NoteRead(a)
			} else {
				b.NoteWrite(a)
			}
		}
	}))

	store := interval.NewBitmapStore()
	v := vc.New(8)
	idx := vc.Index(0)
	k.put("interval.finish_us", scaled(k.each(200, func() {
		for pg := 0; pg < pages; pg++ {
			b.NoteWrite(l.PageBase(mem.PageID(pg)))
		}
		if idx%32 == 0 {
			store.DiscardUpTo(0, idx) // the barrier-time GC; keeps the store bounded
		}
	}, func() {
		idx++
		v[0] = idx
		sink += uint64(len(b.Finish(vc.IntervalID{Proc: 0, Index: idx}, v, 0, store).WriteNotices))
	}), 1e-3))

	log := interval.NewLog()
	for _, r := range k.syntheticEpoch(8, 32, 512, 2) {
		log.Add(r)
	}
	theirs := vc.New(8)
	for i := range theirs {
		theirs[i] = 16
	}
	k.put("interval.log_delta_us", scaled(k.loop("", func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(log.Delta(theirs)))
		}
	}), 1e-3))

	pa, pb := k.rng.Perm(128)[:32], k.rng.Perm(128)[:32]
	la, lb := make([]mem.PageID, 32), make([]mem.PageID, 32)
	for i := range la {
		la[i], lb[i] = mem.PageID(pa[i]), mem.PageID(pb[i])
	}
	interval.SortPages(la)
	interval.SortPages(lb)
	var dst []mem.PageID
	k.put("interval.overlap_pages_ns", k.loop("", func(n int) {
		for i := 0; i < n; i++ {
			dst = interval.OverlapPages(la, lb, dst[:0])
		}
		sink += uint64(len(dst))
	}))
}

// --- instr, hbdet ---

func (k *kernelRunner) checkers() {
	c := &instr.Checker{Lo: 1 << 16, Hi: 1 << 24}
	k.put("instr.check_ns", k.loop("", func(n int) {
		hits := 0
		for i := 0; i < n; i++ {
			if c.Check(uint64(i) * 64) {
				hits++
			}
		}
		sink += uint64(hits)
	}))

	d := hbdet.New(8)
	k.put("hbdet.access_ns", k.loop("", func(n int) {
		for i := 0; i < n; i++ {
			p := i & 7
			a := mem.Addr((p*128 + (i>>3)&127) * mem.WordSize) // each process keeps to its own words: no races
			if i&8 == 0 {
				d.Read(p, a)
			} else {
				d.Write(p, a)
			}
		}
	}))
}

// --- castore ---

func (k *kernelRunner) chunkStore() {
	const chunk = 4096
	buf := make([]byte, chunk)
	k.rng.Read(buf)
	mbps := func(ns []float64) []float64 {
		out := make([]float64, len(ns))
		for i, x := range ns {
			out[i] = chunk / x * 1e3 // bytes per ns → MB/s
		}
		return out
	}
	fresh := castore.New()
	var stamp uint64
	k.put("castore.put_mb_s", mbps(k.loop("", func(n int) {
		for i := 0; i < n; i++ {
			stamp++
			for j := 0; j < 8; j++ {
				buf[j] = byte(stamp >> (8 * j))
			}
			fresh.Put(buf)
		}
	})))
	hit := castore.New()
	hit.Put(buf)
	k.put("castore.put_hit_mb_s", mbps(k.loop("", func(n int) {
		for i := 0; i < n; i++ {
			hit.Put(buf)
		}
	})))
}

// --- msg ---

// waterRecords builds n interval records shaped like Water's: 4 processes,
// a few write notices, about twice as many read notices.
func (k *kernelRunner) waterRecords(n int) []*interval.Record {
	recs := make([]*interval.Record, n)
	for i := range recs {
		rec := &interval.Record{ID: vc.IntervalID{Proc: i % 4, Index: vc.Index(i + 1)}, VC: vc.New(4)}
		for j := range rec.VC {
			rec.VC[j] = vc.Index(k.rng.Intn(40))
		}
		for _, pg := range k.rng.Perm(64)[:3] {
			rec.WriteNotices = append(rec.WriteNotices, mem.PageID(pg))
		}
		for _, pg := range k.rng.Perm(64)[:7] {
			rec.ReadNotices = append(rec.ReadNotices, mem.PageID(pg))
		}
		interval.SortPages(rec.WriteNotices)
		interval.SortPages(rec.ReadNotices)
		recs[i] = rec
	}
	return recs
}

func (k *kernelRunner) pageBitmap(words, set int) mem.Bitmap {
	bm := mem.NewBitmap(words)
	for i := 0; i < set; i++ {
		bm.Set(k.rng.Intn(words))
	}
	return bm
}

func (k *kernelRunner) codec() {
	words := mem.DefaultPageSize / mem.WordSize
	page := make([]byte, mem.DefaultPageSize)
	k.rng.Read(page)
	bitmaps := &msg.BitmapReply{Epoch: 3}
	for i := 0; i < 16; i++ {
		bitmaps.Entries = append(bitmaps.Entries, msg.BitmapEntry{
			Proc: int32(i % 8), Index: uint32(i + 1), Page: mem.PageID(i),
			Read: k.pageBitmap(words, 32), Write: k.pageBitmap(words, 16),
		})
	}
	shard := &msg.ShardResult{Epoch: 3, BitmapsCompared: 64, WordOverlaps: 16}
	for i := 0; i < 16; i++ {
		shard.Races = append(shard.Races, race.Report{
			Page: mem.PageID(i), Word: i, Addr: mem.Addr(i * 8), Epoch: 3,
			A: race.Endpoint{Interval: vc.IntervalID{Proc: 0, Index: 2}, Kind: race.Write},
			B: race.Endpoint{Interval: vc.IntervalID{Proc: 1, Index: 4}, Kind: race.Read},
		})
	}
	tree := &msg.TreeReduce{Epoch: 3, VC: []uint32{4, 4, 4, 4, 4, 4, 4, 4}, Intervals: k.waterRecords(32), MinArr: 12345}
	for i := 0; i < 64; i++ {
		tree.Entries = append(tree.Entries, race.CheckEntry{
			A: vc.IntervalID{Proc: i % 4, Index: 1}, B: vc.IntervalID{Proc: 4 + i%4, Index: 2}, Page: mem.PageID(i),
		})
	}
	for _, c := range []struct {
		name string
		m    msg.Message
	}{
		{"acquire_grant", &msg.AcquireGrant{Lock: 5, Intervals: k.waterRecords(6)}},
		{"page_reply", &msg.PageReply{Page: 9, Ownership: true, Data: page}},
		// 17 records: Water's intervals per process per barrier at scale 1.
		{"barrier_arrive", &msg.BarrierArrive{Epoch: 3, VC: []uint32{9, 9, 9, 9}, Intervals: k.waterRecords(17)}},
		{"bitmap_reply", bitmaps},
		{"shard_result", shard},
		{"tree_reduce", tree},
	} {
		m := c.m
		k.put("msg.roundtrip_ns."+c.name, k.loop("msg.roundtrip_allocs."+c.name, func(n int) {
			for i := 0; i < n; i++ {
				out, err := msg.Unmarshal(msg.Marshal(m))
				if err != nil {
					k.fail("msg."+c.name, err)
					return
				}
				sink += uint64(out.Type())
			}
		}))
	}
}

// --- simnet, reliable ---

func (k *kernelRunner) transports() {
	grant := &msg.AcquireGrant{Lock: 5, Intervals: k.waterRecords(6)}
	nw := simnet.New(2)
	k.put("simnet.sendrecv_ns", k.loop("simnet.sendrecv_allocs", func(n int) {
		for i := 0; i < n; i++ {
			nw.Send(0, 1, grant, int64(i))
			d, _ := nw.Recv(1)
			sink += uint64(d.Bytes)
		}
	}))
	nw.Close()

	// Lossless wire under the retransmission sublayer: its timers are real
	// time, so a lossy wire would measure timers, not code.
	rt := reliable.Wrap(simnet.New(2), 2, reliable.Config{})
	k.put("reliable.sendrecv_ns", k.loop("reliable.sendrecv_allocs", func(n int) {
		for i := 0; i < n; i++ {
			rt.Send(0, 1, grant, int64(i))
			d, _ := rt.Recv(1)
			sink += uint64(d.Bytes)
		}
	}))
	rt.Close()
}

// --- race ---

func (k *kernelRunner) detector() {
	const pages = 64
	l, err := mem.NewLayout(pages*mem.DefaultPageSize, mem.DefaultPageSize)
	if err != nil {
		k.fail("race", err)
		return
	}
	words := l.WordsPerPage()
	build := func(recs []*interval.Record) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(len(race.NewDetector(l, race.Options{}).BuildCheckList(recs)))
			}
		}
	}
	us := func(ns []float64) []float64 { return scaled(ns, 1e-3) }
	k.put("race.build_us.barrier_only", us(k.loop("", build(k.syntheticEpoch(4, 2, pages, 8)))))
	k.put("race.build_us.chained_8x32", us(k.loop("race.build_allocs.chained_8x32", build(chainedEpoch(8, 32)))))
	k.put("race.build_us.independent_8x32", us(k.loop("race.build_allocs.independent_8x32", build(k.syntheticEpoch(8, 32, 512, 2)))))

	// A false-sharing epoch with its bitmaps: 8 processes x 8 intervals,
	// each process keeping to its own words of every page it touches.
	recs := k.syntheticEpoch(8, 8, pages, 4)
	store := interval.NewBitmapStore()
	for _, r := range recs {
		for _, notices := range []struct {
			pages []mem.PageID
			write bool
		}{{r.ReadNotices, false}, {r.WriteNotices, true}} {
			for _, pg := range notices.pages {
				bm := mem.NewBitmap(words)
				for s := 0; s < 16; s++ {
					bm.Set(k.rng.Intn(words/8)*8 + r.ID.Proc)
				}
				store.Put(r.ID, pg, notices.write, bm)
			}
		}
	}
	src := race.StoreSource{Store: store}
	det := race.NewDetector(l, race.Options{})
	entries := det.BuildCheckList(recs)
	if len(entries) == 0 {
		k.fail("race", fmt.Errorf("synthetic epoch produced an empty check list"))
		return
	}
	k.put("race.compare_ns_per_entry", scaled(k.loop("", func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(det.Compare(entries, src, 1)))
		}
	}), 1/float64(len(entries))))

	var owner []int32
	k.put("race.partition_us", us(k.loop("", func(n int) {
		for i := 0; i < n; i++ {
			owner = race.PartitionCheckList(entries, 8)
		}
	})))
	var mine []race.CheckEntry
	for i, e := range entries {
		if owner[i] == 0 {
			mine = append(mine, e)
		}
	}
	var reports []race.Report
	var sst race.ShardStats
	k.put("race.compare_shard_us", us(k.loop("", func(n int) {
		for i := 0; i < n; i++ {
			reports, sst = race.CompareShard(l, mine, src, 1)
		}
	})))

	groups := make([][]*interval.Record, 2)
	for _, r := range recs {
		groups[r.ID.Proc/4] = append(groups[r.ID.Proc/4], r)
	}
	var partial []race.CheckEntry
	var bst race.BuildStats
	k.put("race.partial_build_us", us(k.loop("", func(n int) {
		for i := 0; i < n; i++ {
			partial, bst = race.BuildPartialCheckList(race.Options{}, groups)
		}
	})))

	var es []race.CheckEntry
	var rs []race.Report
	k.put("race.fold_us", us(k.each(500, func() {
		es = append(es[:0], partial...) // both folds sort in place
		rs = append(rs[:0], reports...)
	}, func() {
		sink += uint64(len(det.FoldCheckLists(len(recs), es, bst)) + len(det.FoldShardResults(rs, sst, 1)))
	})))
}

// --- dsm ---

// dsmAccess times Proc.Read and Proc.Write on resident, owned pages of a
// one-process System, inside the worker.
func (k *kernelRunner) dsmAccess() {
	for _, c := range []struct {
		detect      bool
		read, write string
	}{{true, "dsm.read_ns", "dsm.write_ns"}, {false, "dsm.read_ns_base", "dsm.write_ns_base"}} {
		const pages = 64
		sys, err := dsm.New(dsm.Config{NumProcs: 1, SharedSize: pages * mem.DefaultPageSize, Detect: c.detect})
		if err != nil {
			k.fail(c.read, err)
			continue
		}
		nwords := pages * mem.DefaultPageSize / mem.WordSize
		base, err := sys.AllocWords("a", nwords)
		if err != nil {
			k.fail(c.read, err)
			continue
		}
		var reads, writes []float64
		err = sys.Run(func(p *dsm.Proc) {
			for w := 0; w < nwords; w += mem.DefaultPageSize / mem.WordSize {
				p.Write(base+mem.Addr(w*mem.WordSize), 1) // take every page's write fault up front
			}
			reads = k.loop("", func(n int) {
				var s uint64
				for i := 0; i < n; i++ {
					s += p.Read(base + mem.Addr(i%nwords*mem.WordSize))
				}
				sink += s
			})
			writes = k.loop("", func(n int) {
				for i := 0; i < n; i++ {
					p.Write(base+mem.Addr(i%nwords*mem.WordSize), uint64(i))
				}
			})
		})
		if err != nil {
			k.fail(c.read, err)
			continue
		}
		k.put(c.read, reads)
		k.put(c.write, writes)
	}
}

// dsmSync times a two-process lock ping-pong and four-process empty epochs:
// wall of sys.Run per acquire or barrier, a fresh System per sample.
func (k *kernelRunner) dsmSync() {
	rounds, samples := 400, 5
	if k.e.tiny {
		rounds, samples = 4, 1
	}
	timeRun := func(name string, cfg dsm.Config, per int, body func(p *dsm.Proc, x mem.Addr)) {
		var out []float64
		for s := 0; s < samples; s++ {
			sys, err := dsm.New(cfg)
			if err != nil {
				k.fail(name, err)
				return
			}
			x, err := sys.AllocWords("x", 1)
			if err != nil {
				k.fail(name, err)
				return
			}
			t0 := time.Now()
			if err := sys.Run(func(p *dsm.Proc) { body(p, x) }); err != nil {
				k.fail(name, err)
				return
			}
			out = append(out, float64(time.Since(t0).Nanoseconds())/float64(per)/1e3)
		}
		k.put(name, out)
	}
	timeRun("dsm.lock_us", dsm.Config{NumProcs: 2, SharedSize: mem.DefaultPageSize, Detect: true}, 2*rounds,
		func(p *dsm.Proc, x mem.Addr) {
			for i := 0; i < rounds; i++ {
				p.Lock(0)
				p.Write(x, p.Read(x)+1)
				p.Unlock(0)
			}
		})
	epochs := func(p *dsm.Proc, _ mem.Addr) {
		for i := 0; i < rounds; i++ {
			p.Barrier()
		}
	}
	timeRun("dsm.barrier_us.detect", dsm.Config{NumProcs: 4, SharedSize: mem.DefaultPageSize, Detect: true}, rounds, epochs)
	timeRun("dsm.barrier_us.base", dsm.Config{NumProcs: 4, SharedSize: mem.DefaultPageSize}, rounds, epochs)
}

// --- telemetry ---

func (k *kernelRunner) telemetry() {
	emit := func(sc telemetry.Scope) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				sc.Emit(i&3, telemetry.KPageFault, int64(i), int64(i), 1, 0)
			}
		}
	}
	k.put("telemetry.emit_ns.off", k.loop("", emit(telemetry.To(nil))))
	k.put("telemetry.emit_ns.on", k.loop("", emit(telemetry.To(telemetry.New(telemetry.Config{Procs: 4})))))
	var seen uint64
	k.put("telemetry.emit_ns.observer", k.loop("", emit(telemetry.To(telemetry.New(telemetry.Config{
		Procs: 4, Observer: func(telemetry.Event) { seen++ },
	})))))
	sink += seen
}

// --- service.Store, castore.SegLog ---

func raceRecord(i int) service.Record {
	return service.Record{Session: "s1", Tenant: "bench", Kind: service.KindRace, VT: int64(i), Addr: uint64(i * 8), Epoch: 3, WriteWrite: i&1 == 0}
}

func (k *kernelRunner) reportStore() {
	memStore := service.NewStore(0)
	i := 0
	k.put("service.store_append_us.mem", scaled(k.loop("", func(n int) {
		for j := 0; j < n; j++ {
			i++
			memStore.Append(raceRecord(i))
		}
	}), 1e-3))

	dir, err := os.MkdirTemp(k.e.tmp, "store-")
	if err != nil {
		k.fail("service.store", err)
		return
	}
	defer os.RemoveAll(dir)
	durable, _, err := service.OpenStore(dir, 0, castore.SegLogOptions{SyncEvery: 1})
	if err != nil {
		k.fail("service.store", err)
		return
	}
	k.put("service.store_append_us.durable", scaled(k.each(64, nil, func() {
		i++
		durable.Append(raceRecord(i))
	}), 1e-3))
	if err := durable.Close(); err != nil {
		k.fail("service.store", err)
	}

	since := service.NewStore(0)
	for j := 1; j <= 4096; j++ {
		since.Append(raceRecord(j))
	}
	k.put("service.store_since_us", scaled(k.loop("", func(n int) {
		for j := 0; j < n; j++ {
			recs, _, _ := since.Since(4096-64, "", 0)
			sink += uint64(len(recs))
		}
	}), 1e-3))
}

func (k *kernelRunner) segLog() {
	payload := make([]byte, 200) // about one JSON race record
	k.rng.Read(payload)
	for _, c := range []struct {
		name string
		sync int
		max  int
	}{{"castore.seglog_append_us.sync1", 1, 64}, {"castore.seglog_append_us.nosync", -1, 4000}} {
		dir, err := os.MkdirTemp(k.e.tmp, "seglog-")
		if err != nil {
			k.fail(c.name, err)
			return
		}
		log, _, err := castore.OpenSegLog(dir, castore.SegLogOptions{SyncEvery: c.sync}, nil)
		if err != nil {
			k.fail(c.name, err)
			return
		}
		var stamp uint64
		k.put(c.name, scaled(k.each(c.max, nil, func() {
			stamp++
			payload[0], payload[1] = byte(stamp), byte(stamp>>8)
			if _, err := log.Append(payload); err != nil {
				k.fail(c.name, err)
			}
		}), 1e-3))
		if err := log.Close(); err != nil {
			k.fail(c.name, err)
		}
		os.RemoveAll(dir)
	}

	// Replay: what service.Open pays at start-up per stored record.
	records := 10000
	if k.e.tiny {
		records = 50
	}
	dir := filepath.Join(k.e.tmp, "seglog-replay")
	defer os.RemoveAll(dir)
	log, _, err := castore.OpenSegLog(dir, castore.SegLogOptions{SyncEvery: -1}, nil)
	if err != nil {
		k.fail("castore.seglog_replay", err)
		return
	}
	for i := 0; i < records; i++ {
		payload[0], payload[1] = byte(i), byte(i>>8)
		if _, err := log.Append(payload); err != nil {
			k.fail("castore.seglog_replay", err)
			return
		}
	}
	if err := log.Close(); err != nil {
		k.fail("castore.seglog_replay", err)
		return
	}
	var out []float64
	for s := 0; s < 3; s++ {
		replayed := 0
		t0 := time.Now()
		log, trunc, err := castore.OpenSegLog(dir, castore.SegLogOptions{SyncEvery: -1}, func([]byte) error { replayed++; return nil })
		d := time.Since(t0)
		if err != nil || trunc != nil || replayed != records {
			k.fail("castore.seglog_replay", fmt.Errorf("replayed %d of %d records (truncation %v, error %v)", replayed, records, trunc, err))
			return
		}
		log.Close() // nothing appended: nothing to flush
		out = append(out, d.Seconds()*1e3*10000/float64(records))
	}
	k.put("castore.seglog_replay_ms_per_10k", out)
}

// --- harness, sweep ---

func (k *kernelRunner) harnessAndSweep() {
	res, err := harness.Run(harness.RunConfig{App: "SOR", Scale: 0.1, Procs: 2, Detect: true})
	if err != nil {
		k.fail("harness.metrics_snapshot_us", err)
		return
	}
	k.put("harness.metrics_snapshot_us", scaled(k.loop("", func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(res.MetricsSnapshot().Counters))
		}
	}), 1e-3))

	// Eight tiny cells, one worker: what the sweep adds around the runs.
	plan := &sweep.Plan{
		Apps: []string{"SOR"}, Scales: []float64{0.1}, Procs: []int{2},
		Protocols: []string{"sw", "mw"}, Detect: []bool{true, false}, Checkpoint: []bool{true, false},
	}
	samples := 3
	if k.e.tiny {
		samples = 1
	}
	var out []float64
	for s := 0; s < samples; s++ {
		dir, err := os.MkdirTemp(k.e.tmp, "sweep-")
		if err != nil {
			k.fail("sweep.cell_overhead_us", err)
			return
		}
		t0 := time.Now()
		sw, err := sweep.New(plan, sweep.Options{Workers: 1, Dir: dir})
		if err != nil {
			k.fail("sweep.cell_overhead_us", err)
			return
		}
		sum, err := sw.Run(context.Background())
		wall := time.Since(t0).Nanoseconds()
		os.RemoveAll(dir)
		if err != nil || sum.OK != 8 {
			k.fail("sweep.cell_overhead_us", fmt.Errorf("sweep finished %d of 8 cells: %v", sum.OK, err))
			return
		}
		out = append(out, float64(wall-sum.WallNS)/8/1e3)
	}
	k.put("sweep.cell_overhead_us", out)
}

// --- service without HTTP ---

func (k *kernelRunner) inprocSessions() {
	svc := service.New(service.Config{MaxSessions: 1})
	defer svc.Close()
	req := sessionRequest(k.e, sessWaterOn)
	k.put("service.inproc_session_ms", scaled(k.each(10, nil, func() {
		sess, err := svc.Submit(req)
		if err != nil {
			k.fail("service.inproc_session_ms", err)
			return
		}
		<-sess.Done()
		if r := sess.Result(); r == nil || r.Status != sweep.StatusOK {
			k.fail("service.inproc_session_ms", fmt.Errorf("session ended %+v", r))
		}
	}), 1e-6))
}

package main

// The declared metric set. BENCHMARK.json at the repo root lists the same
// names, units and directions (bench_test.go holds the two equal); this
// table adds what that file's schema has no room for: the clock a number is
// read from, whether it repeats exactly, and — for a per-layer metric — the
// end-to-end metric it is predicted to move and on which workloads.

// Clocks. Every number is labelled with the clock it comes from: host is
// wall time of this Go program, simulated is the cost model's virtual time,
// count is work counted by the program or the bench.
const (
	host      = "host"
	simulated = "simulated"
	count     = "count"
)

// Workload names are normative: later issues cite them.
const (
	wBarrier = "dsm-barrier"
	wSync    = "dsm-sync"
	wCheck   = "dsm-check"
	wGoFront = "gofront-kv"
	wService = "service-burst"
)

var (
	allWorkloads = []string{wBarrier, wSync, wCheck, wGoFront, wService}
	dsmWorkloads = []string{wBarrier, wSync, wCheck}
	// dsmBacked also counts the service sessions, which run DSM programs
	// and export the same counters through their CellResult.
	dsmBacked = []string{wBarrier, wSync, wCheck, wService}
)

// metricDef declares one metric.
type metricDef struct {
	Name   string
	Unit   string
	Clock  string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Exact  bool    // repeats exactly run to run on the workloads marked deterministic
	Doc    string

	// Per-layer only.
	Layer string   // module the number belongs to
	Moves string   // end-to-end metric it is predicted to move...
	On    []string // ...on these workloads (and on no other)
	// From lists the workloads whose own runs produce the number; nil means
	// a kernel driver produces it, in every traced run. On a workload
	// outside From the metric reads 0: the layer is not on that path.
	From []string
}

// endToEnd are the metrics a user of the system sees. One op is a shared
// access on dsm-barrier and dsm-sync, a barrier epoch on dsm-check, a
// client operation on gofront-kv and a session on service-burst.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Clock: host, Better: "lower", Bound: 0.25,
		Doc: "median over the run's set-ups of: input build, service open, temp dirs and one warm-up iteration"},
	{Name: "op_ns", Unit: "ns", Clock: host, Better: "lower", Bound: 0.25,
		Doc: "median over iterations of the wall time of the detection-on runs per op (service-burst: median submit-to-terminal latency of the Water detection-on sessions)"},
	{Name: "op_ns_base", Unit: "ns", Clock: host, Better: "lower", Bound: 0.25,
		Doc: "the same over the detection-off runs, so a detector speed-up paid for by the base path shows (service-burst: the Water detection-off sessions)"},
	{Name: "ops_per_s", Unit: "1/s", Clock: host, Better: "higher", Bound: 0.25,
		Doc: "ops completed in the timed region, detection on and off together, per second of it; includes set-up and verification of every program run"},
	{Name: "alloc_bytes_per_op", Unit: "B", Clock: host, Better: "lower", Bound: 0.06,
		Doc: "runtime.MemStats.TotalAlloc growth over the timed region per op"},
}

const (
	opNS     = "op_ns"
	opNSBase = "op_ns_base"
	opsPerS  = "ops_per_s"
)

// perLayer is grouped by the end-to-end movement each group predicts.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(layer, moves string, on []string, defs ...metricDef) {
		for _, d := range defs {
			d.Layer, d.Moves, d.On = layer, moves, on
			out = append(out, d)
		}
	}
	ns := func(name, doc string) metricDef {
		return metricDef{Name: name, Unit: "ns", Clock: host, Better: "lower", Doc: doc}
	}
	us := func(name, doc string) metricDef {
		return metricDef{Name: name, Unit: "us", Clock: host, Better: "lower", Doc: doc}
	}
	ms := func(name, doc string) metricDef {
		return metricDef{Name: name, Unit: "ms", Clock: host, Better: "lower", Doc: doc}
	}
	allocs := func(name, doc string) metricDef {
		return metricDef{Name: name, Unit: "count", Clock: count, Better: "lower", Exact: true, Doc: doc}
	}
	cnt := func(name, doc string, from []string) metricDef {
		return metricDef{Name: name, Unit: "count", Clock: count, Better: "lower", Exact: true, Doc: doc, From: from}
	}
	from := func(d metricDef, ws ...string) metricDef { d.From = ws; return d }
	exact := func(d metricDef) metricDef { d.Exact = true; return d }

	barrier := []string{wBarrier}
	sync := []string{wSync}
	check := []string{wCheck}
	gof := []string{wGoFront}
	svc := []string{wService}

	// → op_ns / op_ns_base on dsm-barrier; predicted ~0 on dsm-sync and
	// service-burst.
	add("dsm", opNS, barrier,
		ns("dsm.read_ns", "Proc.Read of a resident page, detection on (1-proc System, timed inside the worker)"),
		ns("dsm.write_ns", "Proc.Write of an owned page, detection on"),
		from(us("dsm.ckpt_encode_us", "CheckpointStats.EncodeNS / Count over the workload's own runs"), dsmWorkloads...),
		exact(from(metricDef{Name: "dsm.ckpt_stored_ratio", Unit: "ratio", Clock: count, Better: "lower",
			Doc: "checkpoint bytes stored / bytes a full serialization would write"}, dsmWorkloads...)),
		cnt("dsm.page_faults", "read + write faults per iteration (service-burst: per session)", dsmBacked),
		cnt("dsm.intervals", "interval records created per iteration", dsmBacked),
		cnt("dsm.barriers", "barrier episodes per iteration, summed over processes", dsmBacked),
	)
	add("dsm", opNSBase, barrier,
		ns("dsm.read_ns_base", "Proc.Read of a resident page, detection off"),
		ns("dsm.write_ns_base", "Proc.Write of an owned page, detection off"),
	)
	add("interval", opNS, barrier,
		ns("interval.note_ns", "Builder.NoteRead/NoteWrite over 64 pages"),
		us("interval.finish_us", "Builder.Finish of an interval with 64 dirty pages"),
	)
	add("instr", opNS, barrier,
		ns("instr.check_ns", "Checker.Check, the analysis routine's bounds test"),
	)
	add("castore", opNS, barrier,
		metricDef{Name: "castore.put_mb_s", Unit: "MB/s", Clock: host, Better: "higher", Doc: "Store.Put of fresh 4 KiB chunks"},
		metricDef{Name: "castore.put_hit_mb_s", Unit: "MB/s", Clock: host, Better: "higher", Doc: "Store.Put of a resident 4 KiB chunk (dedup hit)"},
	)
	add("harness", opsPerS, barrier,
		from(ms("harness.overhead_ms", "harness.Run wall minus Result.WallNS per run: app set-up, verification, stats"), wBarrier, wSync),
	)
	add("simnet", opNS, sync,
		cnt("simnet.msgs", "wire messages per iteration", dsmBacked),
		cnt("simnet.bytes", "wire bytes per iteration", dsmBacked),
		ns("simnet.sendrecv_ns", "Network.Send + Recv of a Water-sized AcquireGrant"),
		allocs("simnet.sendrecv_allocs", "allocations per Send + Recv"),
	)
	add("costmodel", opNS, barrier,
		exact(from(metricDef{Name: "costmodel.virtual_ms.SOR", Unit: "ms", Clock: simulated, Better: "lower",
			Doc: "virtual run time of SOR with detection on"}, wBarrier)),
		exact(from(metricDef{Name: "costmodel.virtual_ms.FFT", Unit: "ms", Clock: simulated, Better: "lower",
			Doc: "virtual run time of FFT with detection on"}, wBarrier)),
		exact(from(metricDef{Name: "costmodel.virtual_slowdown", Unit: "ratio", Clock: simulated, Better: "lower",
			Doc: "geometric mean over programs of detection-on / detection-off virtual time: the paper's headline; exact on dsm-barrier and dsm-check"},
			dsmWorkloads...)),
	)

	// → op_ns on dsm-sync; predicted 0 on dsm-barrier.
	add("msg", opNS, sync,
		ns("msg.roundtrip_ns.acquire_grant", "Marshal + Unmarshal of an AcquireGrant with Water's record count"),
		allocs("msg.roundtrip_allocs.acquire_grant", "allocations of that round trip"),
		ns("msg.roundtrip_ns.page_reply", "Marshal + Unmarshal of a PageReply with one page"),
		allocs("msg.roundtrip_allocs.page_reply", "allocations of that round trip"),
		ns("msg.roundtrip_ns.barrier_arrive", "Marshal + Unmarshal of a BarrierArrive with 17 records, Water's intervals per process per barrier"),
		allocs("msg.roundtrip_allocs.barrier_arrive", "allocations of that round trip"),
	)
	add("reliable", opNS, nil,
		ns("reliable.sendrecv_ns", "lossless Wrap: Send + Recv; guards the chaos path, no workload here runs it, so it moves no end-to-end metric"),
		metricDef{Name: "reliable.sendrecv_allocs", Unit: "count", Clock: count, Better: "lower",
			Doc: "allocations per Send + Recv; acknowledgements ride on real timers, so unlike the other allocation counts it does not repeat exactly"},
	)
	add("dsm", opNS, sync,
		us("dsm.lock_us", "2-proc lock ping-pong: wall per acquire"),
		us("dsm.barrier_us.detect", "4-proc empty epochs, detection on: wall per barrier"),
		cnt("dsm.lock_acquires", "lock acquisitions per iteration", dsmBacked),
		cnt("dsm.read_notice_bytes", "wire bytes of read notices per iteration", dsmBacked),
		cnt("dsm.diff_words", "words carried by flushed diffs per iteration", dsmBacked),
	)
	add("dsm", opNSBase, sync,
		us("dsm.barrier_us.base", "4-proc empty epochs, detection off: wall per barrier"),
	)
	add("interval", opNS, sync,
		us("interval.log_delta_us", "Log.Delta over 8 procs x 32 records for a peer that has seen half"),
	)
	add("race", opNS, sync,
		cnt("race.check_entries", "check-list entries built per iteration", dsmBacked),
		cnt("race.bitmaps_compared", "bitmaps fetched and compared per iteration", dsmBacked),
		cnt("race.distinct_races", "racy addresses per iteration", dsmWorkloads),
	)

	// → op_ns on dsm-check; race.build_us.barrier_only guards dsm-barrier.
	add("dsm", opNS, check,
		from(us("dsm.epoch_us.flat", "wall per barrier epoch, flat barrier + serial check"), wCheck),
		from(us("dsm.epoch_us.sharded", "wall per barrier epoch, ShardedCheck"), wCheck),
		from(us("dsm.epoch_us.tree", "wall per barrier epoch, BarrierTree 2"), wCheck),
		exact(from(metricDef{Name: "dsm.barrier_wait_virtual_p50_us.flat", Unit: "us", Clock: simulated, Better: "lower",
			Doc: "median virtual barrier wait (dsm_barrier_wait_ns), flat + serial"}, wCheck)),
		exact(from(metricDef{Name: "dsm.barrier_wait_virtual_p50_us.sharded", Unit: "us", Clock: simulated, Better: "lower",
			Doc: "median virtual barrier wait, ShardedCheck"}, wCheck)),
		exact(from(metricDef{Name: "dsm.barrier_wait_virtual_p50_us.tree", Unit: "us", Clock: simulated, Better: "lower",
			Doc: "median virtual barrier wait, BarrierTree 2"}, wCheck)),
	)
	add("race", opNS, check,
		us("race.build_us.barrier_only", "BuildCheckList over a barrier-only epoch (4 procs x 2 intervals): the guard for dsm-barrier"),
		us("race.build_us.chained_8x32", "BuildCheckList over 8x32 lock-chained intervals"),
		allocs("race.build_allocs.chained_8x32", "allocations of that build"),
		us("race.build_us.independent_8x32", "BuildCheckList over 8x32 independent intervals"),
		allocs("race.build_allocs.independent_8x32", "allocations of that build"),
		ns("race.compare_ns_per_entry", "Detector.Compare wall per check entry"),
		us("race.partition_us", "PartitionCheckList over the independent epoch's list, 8 owners"),
		us("race.compare_shard_us", "CompareShard over one of 8 shards"),
		us("race.partial_build_us", "BuildPartialCheckList over two 4-proc groups"),
		us("race.fold_us", "FoldCheckLists + FoldShardResults at the root"),
		cnt("race.comparisons", "version-vector pair comparisons per iteration", dsmBacked),
		cnt("race.reports", "dynamic race reports per iteration", dsmBacked),
	)
	add("interval", opNS, check,
		ns("interval.overlap_pages_ns", "OverlapPages over two 32-page notice lists"),
	)
	add("msg", opNS, check,
		ns("msg.roundtrip_ns.bitmap_reply", "Marshal + Unmarshal of a BitmapReply with 16 entries"),
		allocs("msg.roundtrip_allocs.bitmap_reply", "allocations of that round trip"),
		ns("msg.roundtrip_ns.shard_result", "Marshal + Unmarshal of a ShardResult with 16 reports"),
		allocs("msg.roundtrip_allocs.shard_result", "allocations of that round trip"),
		ns("msg.roundtrip_ns.tree_reduce", "Marshal + Unmarshal of a TreeReduce with 32 records and 64 entries"),
		allocs("msg.roundtrip_allocs.tree_reduce", "allocations of that round trip"),
	)

	// → op_ns on dsm-check and on gofront-kv: one kernel, two uses.
	both := []string{wCheck, wGoFront}
	add("vc", opNS, both,
		ns("vc.concurrent_ns", "vc.Concurrent, N = 8"),
		ns("vc.merge_ns", "VC.Merge, N = 8"),
	)
	add("mem", opNS, both,
		ns("mem.bitmap_intersects_ns", "Bitmap.Intersects over a page's words"),
		ns("mem.bitmap_overlap_ns", "Bitmap.Overlap over a page's words"),
	)

	// → op_ns / ops_per_s on gofront-kv.
	add("gofront", opNSBase, gof,
		from(ns("gofront.step_ns", "detection-off wall per scheduler step"), wGoFront),
	)
	add("gofront", opNS, gof,
		from(metricDef{Name: "gofront.detect_share", Unit: "ratio", Clock: host, Better: "lower",
			Doc: "1 - detection-off wall / detection-on wall"}, wGoFront),
		exact(from(metricDef{Name: "gofront.pairs_per_sync", Unit: "ratio", Clock: count, Better: "lower",
			Doc: "record pairs vector-compared per sync op: what an epoch fast path must cut"}, wGoFront)),
		exact(from(metricDef{Name: "gofront.check_entries_per_sync", Unit: "ratio", Clock: count, Better: "lower",
			Doc: "check entries built per sync op"}, wGoFront)),
		exact(from(metricDef{Name: "gofront.records_gced_share", Unit: "ratio", Clock: count, Better: "higher",
			Doc: "records retired by the knowledge-horizon GC / intervals created"}, wGoFront)),
		from(metricDef{Name: "gofront.allocs_per_op", Unit: "count", Clock: count, Better: "lower",
			Doc: "heap allocations of the detection-on runs per client op"}, wGoFront),
	)
	add("hbdet", opNS, nil,
		ns("hbdet.access_ns", "the reference detector's Read/Write; the oracle runs in tests only, so it moves no end-to-end metric"),
	)

	// → ops_per_s and op_ns on service-burst.
	add("service", opNS, svc,
		from(ms("service.submit_ms_p50", "Client.Submit span, median"), wService),
		from(ms("service.wait_ms_p50", "Client.Wait span, median"), wService),
		from(ms("service.run_ms_p50", "CellResult wall of the session's run, median"), wService),
		from(ms("service.overhead_ms_p50", "session latency minus its run wall, median: queueing, store, JSON, HTTP"), wService),
		from(ms("service.session_p95_ms", "95th percentile session latency over all sessions; too unsteady to bound"), wService),
		ms("service.inproc_session_ms", "Service.Submit + Done without HTTP, Water 0.5/4; the gap to op_ns is the HTTP + JSON share"),
		us("service.store_append_us.mem", "Store.Append, memory-only store"),
		us("service.store_append_us.durable", "Store.Append, SegLog-backed store, fsync every record"),
		us("service.store_since_us", "Store.Since over the last 64 of 4096 records"),
		cnt("service.sse_records", "records the SSE subscriber received", svc),
		cnt("service.sse_dups", "records it received twice", svc),
		cnt("service.sse_gaps", "sequence numbers it never received", svc),
		from(metricDef{Name: "service.reports_per_session", Unit: "ratio", Clock: count, Better: "lower",
			Doc: "race records appended per session"}, wService),
	)
	add("castore", opsPerS, svc,
		us("castore.seglog_append_us.sync1", "SegLog.Append, fsync every record"),
		us("castore.seglog_append_us.nosync", "SegLog.Append, no fsync"),
		metricDef{Name: "castore.seglog_replay_ms_per_10k", Unit: "ms", Clock: host, Better: "lower",
			Doc: "OpenSegLog replay per 10k records; moves setup_s"},
	)
	add("sweep", opsPerS, svc,
		us("sweep.cell_overhead_us", "8-cell local sweep.Run wall minus the cells' wall, per cell: plan expand, recorder, cell files, aggregation"),
	)
	add("harness", opsPerS, svc,
		us("harness.metrics_snapshot_us", "Result.MetricsSnapshot of a finished run"),
	)
	add("telemetry", opNS, svc,
		ns("telemetry.emit_ns.off", "Scope.Emit with no recorder"),
		ns("telemetry.emit_ns.on", "Scope.Emit into a scoped recorder"),
		ns("telemetry.emit_ns.observer", "Scope.Emit into a recorder with an Observer"),
	)

	add("bench", opNS, nil,
		from(metricDef{Name: "bench.speed_factor", Unit: "ratio", Clock: host, Better: "lower",
			Doc: "how slow the box ran the reference kernel during the timed region (median sample over nominal); the end-to-end host times are divided by it, the per-layer ones are raw"}, allWorkloads...),
		from(metricDef{Name: "bench.trace_overhead_pct", Unit: "%", Clock: host, Better: "lower",
			Doc: "op_ns of the traced iterations over the untraced ones of the same run, minus one"}, allWorkloads...),
	)
	return out
}

// defByName indexes both tables.
func defByName() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}

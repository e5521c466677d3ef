package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"lrcrace/internal/dsm"
	"lrcrace/internal/msg"
	"lrcrace/internal/telemetry"
)

// FillMetrics publishes the run's raw counters into reg, so that one
// telemetry.Snapshot subsumes dsm.Stats (per-process, labeled by proc),
// simnet.Stats (per wire message type), the master's race.Stats, and the
// run's end-to-end times. Run calls this automatically when a telemetry
// recorder was configured; call it directly to export a run that recorded
// no events.
func (r *Result) FillMetrics(reg *telemetry.Registry) {
	if r.GoFront != nil {
		r.fillGoFrontMetrics(reg)
		return
	}
	for i, st := range r.Procs {
		p := telemetry.Label{Key: "proc", Value: strconv.Itoa(i)}
		for _, c := range []struct {
			name, help string
			v          int64
		}{
			{"dsm_shared_reads_total", "Instrumented shared reads.", st.SharedReads},
			{"dsm_shared_writes_total", "Instrumented shared writes.", st.SharedWrites},
			{"dsm_private_accesses_total", "Runtime-checked private accesses.", st.PrivateAccesses},
			{"dsm_read_faults_total", "Read page faults.", st.ReadFaults},
			{"dsm_write_faults_total", "Write page faults.", st.WriteFaults},
			{"dsm_intervals_total", "Interval records created.", st.IntervalsCreated},
			{"dsm_lock_acquires_total", "Distributed lock acquisitions.", st.LockAcquires},
			{"dsm_barriers_total", "Barrier episodes.", st.Barriers},
			{"dsm_diffs_flushed_total", "Multi-writer diffs flushed home.", st.DiffsFlushed},
			{"dsm_diff_words_total", "Words carried by flushed diffs.", st.DiffWords},
			{"dsm_bitmaps_created_total", "Access bitmaps created.", st.BitmapsCreated},
			{"dsm_bitmaps_sent_total", "Access bitmaps sent for comparison.", st.BitmapsSent},
			{"dsm_read_notice_bytes_total", "Wire bytes of read notices sent.", st.ReadNoticeBytes},
			{"dsm_sync_msg_bytes_total", "Wire bytes of record-carrying sync messages sent.", st.SyncMsgBytes},
			// Attributed per process: under the serial check all comparison
			// work lands at proc 0; under ShardedCheck it spreads across the
			// shard owners. (These were previously published only as global
			// detector totals, hiding the distribution.)
			{"race_check_entries_total", "Check-list entries this process compared.", st.CheckEntriesCompared},
			{"race_bitmaps_compared_total", "Bitmap pairs this process fetched and compared.", st.BitmapsCompared},
		} {
			reg.Counter(c.name, c.help, p).Add(c.v)
		}
	}

	for t := 0; t < msg.NumTypes; t++ {
		if r.Net.Messages[t] == 0 && r.Net.Bytes[t] == 0 &&
			r.Net.Dropped[t] == 0 && r.Net.Duplicated[t] == 0 {
			continue
		}
		l := telemetry.Label{Key: "type", Value: msg.Type(t).String()}
		reg.Counter("net_messages_total", "Wire messages sent, by type.", l).Add(r.Net.Messages[t])
		reg.Counter("net_bytes_total", "Wire bytes sent, by type.", l).Add(r.Net.Bytes[t])
		if r.Net.Dropped[t] != 0 {
			reg.Counter("net_dropped_total", "Messages discarded by the fault injector.", l).Add(r.Net.Dropped[t])
		}
		if r.Net.Duplicated[t] != 0 {
			reg.Counter("net_duplicated_total", "Messages duplicated by the fault injector.", l).Add(r.Net.Duplicated[t])
		}
	}
	reg.Counter("net_reordered_total", "Messages held back for reordering.").Add(r.Net.Reordered)
	reg.Counter("net_retransmits_total", "Reliable-sublayer data resends.").Add(r.Net.Retransmits)
	reg.Counter("net_retrans_bytes_total", "Wire bytes of reliable-sublayer resends.").Add(r.Net.RetransBytes)
	reg.Counter("net_deduped_total", "Receiver-side duplicate suppressions.").Add(r.Net.Deduped)
	reg.Counter("net_errors_total", "Transport-level errors (dead links, decode failures).").Add(r.Net.Errors)

	for _, c := range []struct {
		name, help string
		v          int64
	}{
		{"race_epochs_total", "Race-detection passes run at the master.", int64(r.Det.Epochs)},
		{"race_pair_comparisons_total", "Version-vector pair comparisons.", int64(r.Det.PairComparisons)},
		{"race_concurrent_pairs_total", "Interval pairs found concurrent.", int64(r.Det.ConcurrentPairs)},
		{"race_overlapping_pairs_total", "Concurrent pairs with page overlap.", int64(r.Det.OverlappingPairs)},
		{"race_check_entries_built_total", "Check-list entries built by the detector.", int64(r.Det.CheckEntries)},
		{"race_word_overlaps_total", "Racing words found before dedup.", int64(r.Det.WordOverlaps)},
		{"race_reports_suppressed_total", "Reports dropped by first-race filtering.", int64(r.Det.SuppressedReports)},
		{"races_found_total", "Dynamic race reports delivered.", int64(len(r.Races))},
	} {
		reg.Counter(c.name, c.help).Add(c.v)
	}

	reg.Gauge("run_virtual_ns", "End-to-end virtual runtime.").Set(float64(r.VirtualNS))
	reg.Gauge("run_wall_ns", "End-to-end wall-clock runtime.").Set(float64(r.WallNS))
	reg.Gauge("run_shared_mem_bytes", "Shared segment bytes allocated.").Set(float64(r.MemBytes))

	// Crash-tolerance costs, as end-of-run totals. Named run_* (not the
	// event-derived dsm_checkpoint_*/dsm_recovery_* counters) so filling a
	// live recorder's registry does not double-count its own series.
	if r.Checkpoint.Count > 0 || r.Recovery.Recoveries > 0 {
		reg.Gauge("run_checkpoints", "Barrier-epoch checkpoints serialized.").Set(float64(r.Checkpoint.Count))
		reg.Gauge("run_checkpoint_bytes", "Total serialized checkpoint bytes.").Set(float64(r.Checkpoint.Bytes))
		reg.Gauge("run_recoveries", "Coordinated rollback recoveries performed.").Set(float64(r.Recovery.Recoveries))
		reg.Gauge("run_recovery_virtual_ns", "Virtual time rolled back and re-executed.").Set(float64(r.Recovery.VirtualNS))
		reg.Gauge("run_recovery_wall_ns", "Wall time spent restoring from checkpoints.").Set(float64(r.Recovery.WallNS))
	}
}

// MetricsSnapshot freezes the run's metrics: the recorder's registry when
// one was attached (event-derived series plus the raw counters Run filled
// in), or a fresh registry holding just the raw counters otherwise.
func (r *Result) MetricsSnapshot() *telemetry.Snapshot {
	if r.Telemetry != nil {
		return r.Telemetry.Metrics().Snapshot()
	}
	reg := telemetry.NewRegistry()
	r.FillMetrics(reg)
	return reg.Snapshot()
}

// suiteMetrics is the machine-readable form of a Suite's cached runs.
type suiteMetrics struct {
	Scale    float64                     `json:"scale"`
	Procs    int                         `json:"procs"`
	Protocol string                      `json:"protocol"`
	Apps     map[string]*suiteAppMetrics `json:"apps"`
}

type suiteAppMetrics struct {
	Baseline *telemetry.Snapshot `json:"baseline"`
	Detect   *telemetry.Snapshot `json:"detect"`
	Slowdown float64             `json:"slowdown"`
	// Robustness is present when the suite ran with checkpointing enabled:
	// the serialized-checkpoint overhead and any rollback-recovery cost of
	// the detection run, next to the detection-slowdown numbers above.
	Robustness *suiteRobustness `json:"robustness,omitempty"`
}

// suiteRobustness is the crash-tolerance cost block of one suite app run.
type suiteRobustness struct {
	Checkpoints       int   `json:"checkpoints"`
	CheckpointBytes   int64 `json:"checkpoint_bytes"`
	Recoveries        int   `json:"recoveries"`
	RecoveryVirtualNS int64 `json:"recovery_virtual_ns"`
	RecoveryWallNS    int64 `json:"recovery_wall_ns"`
}

// WriteMetricsJSON runs (or reuses) the suite's baseline/detection pairs at
// the suite's process count and writes their metrics snapshots as one JSON
// document — the machine-readable companion to the text tables.
func (s *Suite) WriteMetricsJSON(w io.Writer) error {
	doc := suiteMetrics{
		Scale:    s.Scale,
		Procs:    s.Procs,
		Protocol: dsm.SingleWriter.String(),
		Apps:     make(map[string]*suiteAppMetrics),
	}
	for _, app := range AppNames {
		base, det, err := s.pair(app, s.Procs)
		if err != nil {
			return err
		}
		bs, ds := base.MetricsSnapshot(), det.MetricsSnapshot()
		if s.Canonical {
			bs, ds = bs.Canonical(), ds.Canonical()
		}
		am := &suiteAppMetrics{
			Baseline: bs,
			Detect:   ds,
			Slowdown: Slowdown(base, det),
		}
		if det.Checkpoint.Count > 0 || det.Recovery.Recoveries > 0 {
			am.Robustness = &suiteRobustness{
				Checkpoints:       det.Checkpoint.Count,
				CheckpointBytes:   det.Checkpoint.Bytes,
				Recoveries:        det.Recovery.Recoveries,
				RecoveryVirtualNS: det.Recovery.VirtualNS,
				RecoveryWallNS:    det.Recovery.WallNS,
			}
		}
		doc.Apps[app] = am
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		return fmt.Errorf("harness: encoding metrics JSON: %w", err)
	}
	return nil
}

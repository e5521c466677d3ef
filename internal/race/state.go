package race

import (
	"slices"

	"lrcrace/internal/interval"
)

// State is the checkpointable portion of a Detector: the accumulated work
// statistics, the first-racy-epoch marker behind §6.4 first-race
// filtering, the retained racy interval records ExplainReport needs, and
// the reports themselves. The barrier master serializes it into its
// barrier-epoch checkpoint so a coordinated rollback resumes detection
// exactly where the crash-free run would have been.
type State struct {
	Stats          Stats
	FirstRacyEpoch int32
	// RacyRecords is sorted by (proc, index) so serialization is
	// byte-stable.
	RacyRecords []*interval.Record
	// Reports is every race reported so far, in detection order.
	Reports []Report
}

// SnapshotState returns a deep copy of the detector's mutable state.
func (d *Detector) SnapshotState() State {
	s := State{Stats: d.stats, FirstRacyEpoch: d.firstRacyEpoch, Reports: slices.Clone(d.reports)}
	for _, r := range d.racyRecords.Records() {
		s.RacyRecords = append(s.RacyRecords, r.Clone())
	}
	return s
}

// RestoreState overwrites the detector's mutable state from a snapshot
// (the checkpoint-restore inverse of SnapshotState).
func (d *Detector) RestoreState(s State) {
	d.stats = s.Stats
	d.firstRacyEpoch = s.FirstRacyEpoch
	d.reports = slices.Clone(s.Reports)
	d.racyRecords = interval.NewLog()
	for _, r := range s.RacyRecords {
		d.racyRecords.Add(r.Clone())
	}
}

package race

import (
	"fmt"
	"slices"
	"strings"

	"lrcrace/internal/interval"
	"lrcrace/internal/vc"
)

// Explain renders the concurrency derivation for two interval records: the
// two constant-time vector-timestamp tests that prove the pair unordered,
// plus the page overlap that put it on the check list. This is the
// human-readable form of the paper's happens-before-1 check.
func Explain(a, b *interval.Record) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v (vc %v) vs %v (vc %v):\n", a.ID, a.VC, b.ID, b.VC)
	if a.ID.Proc == b.ID.Proc {
		fmt.Fprintf(&sb, "  same process: ordered by program order (index %d vs %d)\n",
			uint32(a.ID.Index), uint32(b.ID.Index))
		return sb.String()
	}
	explainDir := func(x, y *interval.Record) {
		seen := y.VC[x.ID.Proc]
		if seen >= x.ID.Index {
			fmt.Fprintf(&sb, "  %v ≺ %v: vc(%v)[P%d] = %d ≥ %d (the acquire chain carried it)\n",
				x.ID, y.ID, y.ID, x.ID.Proc, uint32(seen), uint32(x.ID.Index))
		} else {
			fmt.Fprintf(&sb, "  %v ⊀ %v: vc(%v)[P%d] = %d < %d (no synchronization chain)\n",
				x.ID, y.ID, y.ID, x.ID.Proc, uint32(seen), uint32(x.ID.Index))
		}
	}
	explainDir(a, b)
	explainDir(b, a)
	if vc.Concurrent(a.ID, a.VC, b.ID, b.VC) {
		fmt.Fprintf(&sb, "  ⇒ concurrent\n")
		var pages []string
		for _, p := range interval.OverlapPages(a.WriteNotices, b.WriteNotices, nil) {
			pages = append(pages, fmt.Sprintf("page %d (write/write)", p))
		}
		for _, p := range interval.OverlapPages(a.WriteNotices, b.ReadNotices, nil) {
			pages = append(pages, fmt.Sprintf("page %d (write/read)", p))
		}
		for _, p := range interval.OverlapPages(a.ReadNotices, b.WriteNotices, nil) {
			pages = append(pages, fmt.Sprintf("page %d (read/write)", p))
		}
		if len(pages) > 0 {
			fmt.Fprintf(&sb, "  overlapping pages: %s\n", strings.Join(pages, ", "))
		}
	} else {
		fmt.Fprintf(&sb, "  ⇒ ordered\n")
	}
	return sb.String()
}

// Retain appends an epoch's reports to the detector's list (Reports) and
// keeps the records they reference so that races can be explained
// (ExplainReport) after the epoch's other metadata is discarded. The
// barrier master calls it once per epoch with the folded reports and the
// epoch's records.
func (d *Detector) Retain(reports []Report, records []*interval.Record) {
	if len(reports) == 0 {
		return
	}
	d.reports = append(d.reports, reports...)
	wanted := make([]vc.IntervalID, 0, 2*len(reports))
	for _, r := range reports {
		wanted = append(wanted, r.A.Interval, r.B.Interval)
	}
	slices.SortFunc(wanted, interval.CompareIDs)
	for _, rec := range records {
		if _, ok := slices.BinarySearchFunc(wanted, rec.ID, interval.CompareIDs); ok {
			d.racyRecords.Add(rec.Clone())
		}
	}
}

// ExplainReport reconstructs the derivation behind a race report, using the
// interval records retained at detection time. ok is false if the report's
// intervals are unknown (e.g. it came from a different detector).
func (d *Detector) ExplainReport(r Report) (string, bool) {
	a := d.racyRecords.Get(r.A.Interval)
	b := d.racyRecords.Get(r.B.Interval)
	if a == nil || b == nil {
		return "", false
	}
	return fmt.Sprintf("%s (%s in %v, %s in %v at 0x%x)\n%s",
		r.String(), r.A.Kind, r.A.Interval, r.B.Kind, r.B.Interval, uint64(r.Addr),
		Explain(a, b)), true
}

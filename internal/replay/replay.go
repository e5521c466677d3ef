// Package replay implements the paper's §6.1 two-run reference
// identification scheme. Detected races are reported by address; finding
// the *instructions* involved would require retaining a program counter for
// every shared access, which is prohibitive. Instead:
//
//   - Run 1 records the synchronization order (the per-lock sequence of
//     tenures, as serialized by each lock's manager) alongside normal race
//     detection. This is the paper's proposed CVM modification "to save
//     synchronization ordering information from the first run".
//   - Run 2 gathers call-site information only for accesses to the
//     conflicting address. The paper's run 2 must also enforce run 1's
//     order, because CVM executions are nondeterministic. Here one
//     scheduler gives each input exactly one interleaving, and a tracer
//     never moves it, so run 2 is the same Config run again: it repeats
//     run 1's execution by construction, and a second SyncRecord in run 2
//     confirms the lock order repeated.
//
// The recorder (SyncRecord) and the collector (SiteCollector) attach as
// dsm.Config.Tracer. Both are called on the run's one thread and read
// after it, so neither takes a lock.
//
// The "program counter" captured in run 2 is a real Go caller PC, resolved
// to function, file and line — the honest analogue of the Alpha PC plus
// symbol table the paper describes.
package replay

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"

	"lrcrace/internal/mem"
)

// SyncRecord is the synchronization order of one run: for every lock, the
// sequence of processes granted tenures, in manager serialization order.
// It is a dsm.Tracer that notes Acquire calls and ignores everything else.
type SyncRecord struct {
	order map[int][]int
}

// NewSyncRecord returns an empty record.
func NewSyncRecord() *SyncRecord {
	return &SyncRecord{order: make(map[int][]int)}
}

// Acquire records proc as the next tenure of lock. A tracer sees each
// Release before the Acquire it enables, so per lock these calls arrive in
// the managers' serialization order.
func (r *SyncRecord) Acquire(proc, lock int) {
	r.order[lock] = append(r.order[lock], proc)
}

// The other dsm.Tracer events do not change a lock's tenure order.

func (*SyncRecord) Read(int, mem.Addr)       {}
func (*SyncRecord) Write(int, mem.Addr)      {}
func (*SyncRecord) Release(int, int)         {}
func (*SyncRecord) BarrierArrive(int, int32) {}
func (*SyncRecord) BarrierDepart(int, int32) {}

// Order returns the recorded tenure sequence for lock.
func (r *SyncRecord) Order(lock int) []int {
	return append([]int(nil), r.order[lock]...)
}

// Equal reports whether two records describe the same ordering.
func (r *SyncRecord) Equal(o *SyncRecord) bool {
	return maps.EqualFunc(r.order, o.order, slices.Equal[[]int])
}

// AccessSite is one captured access to the watched address.
type AccessSite struct {
	Proc  int
	Write bool
	PC    uintptr
	Func  string
	File  string
	Line  int
}

func (s AccessSite) String() string {
	kind := "read"
	if s.Write {
		kind = "write"
	}
	return fmt.Sprintf("%s by P%d at %s (%s:%d)", kind, s.Proc, s.Func, s.File, s.Line)
}

// SiteCollector gathers the call sites of accesses to one address — the
// run-2 instrumentation of the two-run scheme. It is a dsm.Tracer that
// notes Read and Write calls on Addr and ignores everything else.
type SiteCollector struct {
	Addr mem.Addr

	sites []AccessSite
	seen  map[uintptr]bool
}

// NewSiteCollector watches addr.
func NewSiteCollector(addr mem.Addr) *SiteCollector {
	return &SiteCollector{Addr: addr, seen: make(map[uintptr]bool)}
}

// Read notes a read of Addr.
func (c *SiteCollector) Read(proc int, a mem.Addr) { c.note(proc, a, false) }

// Write notes a write of Addr.
func (c *SiteCollector) Write(proc int, a mem.Addr) { c.note(proc, a, true) }

// Synchronization events carry no access site.

func (*SiteCollector) Acquire(int, int)         {}
func (*SiteCollector) Release(int, int)         {}
func (*SiteCollector) BarrierArrive(int, int32) {}
func (*SiteCollector) BarrierDepart(int, int32) {}

// note records, for an access to Addr, the first application frame above
// the DSM access layer, deduplicated by PC. Every frame below the first
// internal/dsm frame is the tracer's own (this collector, or a tee fanning
// out to it), and every internal/dsm frame is the access layer.
func (c *SiteCollector) note(proc int, a mem.Addr, write bool) {
	if a != c.Addr {
		return
	}
	var pcs [16]uintptr
	n := runtime.Callers(2, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	inDSM := false
	for {
		f, more := frames.Next()
		if f.Function == "" {
			return
		}
		if strings.Contains(f.Function, "internal/dsm.") {
			inDSM = true
		} else if inDSM {
			if !c.seen[f.PC] {
				c.seen[f.PC] = true
				c.sites = append(c.sites, AccessSite{
					Proc: proc, Write: write, PC: f.PC,
					Func: f.Function, File: f.File, Line: f.Line,
				})
			}
			return
		}
		if !more {
			return
		}
	}
}

// Sites returns the distinct access sites captured.
func (c *SiteCollector) Sites() []AccessSite {
	return append([]AccessSite(nil), c.sites...)
}

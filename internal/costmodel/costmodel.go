// Package costmodel defines the virtual-time cost model used to reproduce
// the paper's performance results deterministically.
//
// The paper measured wall-clock time on eight 250 MHz Alpha workstations
// connected by 155 Mbit ATM. We cannot measure that hardware, so the DSM
// carries a virtual clock per process: computation, instrumentation,
// protocol processing and message transmission each advance it by modeled
// amounts, and messages propagate clock values Lamport-style (a receiver's
// clock becomes at least the sender's clock plus wire time). Slowdown is
// then the ratio of virtual end-to-end times with and without detection.
//
// What makes the paper's shapes emerge is the *structure* of the model —
// per-access instrumentation costs paid in parallel on every process,
// versus interval and bitmap comparison serialized at the barrier master —
// not the absolute constants. The constants below are calibrated to
// mid-90s hardware: a 4 ns cycle (250 MHz), ~150 µs user-level UDP message
// latency, and ~19 MB/s effective ATM bandwidth.
package costmodel

// Model holds per-operation virtual-time costs in nanoseconds.
type Model struct {
	// MsgLatency is the fixed per-message wire+software latency.
	MsgLatency int64
	// PerByte is the transmission cost per payload byte (ns, may be
	// fractional when scaled; stored as picoseconds avoided for
	// simplicity — we keep ns and multiply).
	PerByte float64

	// ProcCall is the procedure-call overhead of entering the analysis
	// routine for one instrumented load or store. ATOM could not inline
	// instrumentation, so every instrumented access pays this.
	ProcCall int64
	// AccessCheck is the work inside the analysis routine: comparing the
	// address against the shared-segment bounds and, for shared accesses,
	// setting the bit in the per-page bitmap.
	AccessCheck int64

	// MemAccess is the base cost of one application load/store (cache
	// effects averaged in); charged whether or not detection is on.
	MemAccess int64
	// ComputeOp is the cost of one unit of application arithmetic as
	// charged by apps via Compute(n).
	ComputeOp int64

	// IntervalSetup is the per-interval-record cost of the CVM
	// modifications: building read-notice structures and bitmap
	// bookkeeping when an interval is closed (detection only).
	IntervalSetup int64
	// BitmapSetup is the per-(interval,page)-bitmap cost of the CVM
	// modifications: allocating/clearing the word bitmap and linking it to
	// the notice structures (detection only).
	BitmapSetup int64
	// IntervalCompare is the cost of one version-vector concurrency test
	// at the barrier master.
	IntervalCompare int64
	// PageOverlap is the per-page-notice cost of intersecting the page
	// lists of one concurrent pair.
	PageOverlap int64
	// BitmapCompare is the cost of comparing one pair of word bitmaps.
	BitmapCompare int64

	// PageFault is the software fault-handling cost on the faulting
	// process (trap + protocol entry), excluding the message round.
	PageFault int64
	// Handler is the request-service cost at a process that answers a
	// page fetch, lock forward, or diff application.
	Handler int64
}

// Default returns the calibrated model described in the package comment.
func Default() Model {
	return Model{
		MsgLatency:      150_000, // 150 µs small-message latency
		PerByte:         50,      // ≈19 MB/s effective bandwidth
		ProcCall:        40,      // uninlined call + register save/restore
		AccessCheck:     390,     // bounds compare + page/word math + bit set
		MemAccess:       12,      // average load/store incl. cache misses
		ComputeOp:       8,       // ~2 cycles per arithmetic op
		IntervalSetup:   5_000,   // allocate + link notice structures
		BitmapSetup:     1_500,   // clear + link one per-page word bitmap
		IntervalCompare: 80,      // two integer compares + loop overhead
		PageOverlap:     60,      // per notice element scanned
		BitmapCompare:   2_600,   // 128-byte bitmap AND + scan
		PageFault:       30_000,  // signal delivery + handler entry
		Handler:         10_000,  // request service at the remote process
	}
}

// InstrCost returns the full per-instrumented-access cost (procedure call
// plus access check).
func (m Model) InstrCost() int64 { return m.ProcCall + m.AccessCheck }

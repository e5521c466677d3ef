package costmodel

import "testing"

func TestDefaultIsComplete(t *testing.T) {
	m := Default()
	if m == (Model{}) {
		t.Fatal("Default returned zero model")
	}
	// Every field must be set: a zero cost silently drops a component from
	// the overhead decomposition.
	checks := []struct {
		name string
		v    int64
	}{
		{"MsgLatency", m.MsgLatency},
		{"ProcCall", m.ProcCall},
		{"AccessCheck", m.AccessCheck},
		{"MemAccess", m.MemAccess},
		{"ComputeOp", m.ComputeOp},
		{"IntervalSetup", m.IntervalSetup},
		{"BitmapSetup", m.BitmapSetup},
		{"IntervalCompare", m.IntervalCompare},
		{"PageOverlap", m.PageOverlap},
		{"BitmapCompare", m.BitmapCompare},
		{"PageFault", m.PageFault},
		{"Handler", m.Handler},
	}
	for _, c := range checks {
		if c.v <= 0 {
			t.Errorf("%s = %d, want positive", c.name, c.v)
		}
	}
	if m.PerByte <= 0 {
		t.Errorf("PerByte = %f", m.PerByte)
	}
}

func TestInstrCost(t *testing.T) {
	m := Model{ProcCall: 40, AccessCheck: 390}
	if got := m.InstrCost(); got != 430 {
		t.Errorf("InstrCost = %d", got)
	}
}

// TestCalibrationShape: the relationships the paper's results depend on.
func TestCalibrationShape(t *testing.T) {
	m := Default()
	// Instrumentation must dwarf the base access cost (that's where the 2×
	// slowdown comes from)...
	if m.InstrCost() < 10*m.MemAccess {
		t.Errorf("instrumentation (%d) not dominant over base access (%d)", m.InstrCost(), m.MemAccess)
	}
	// ...the procedure call must be the minor share of instrumentation
	// (Figure 3: "Proc Call" ≈ 6.7% of overhead, removable by inlining)...
	if m.ProcCall*5 > m.AccessCheck {
		t.Errorf("ProcCall (%d) too large relative to AccessCheck (%d)", m.ProcCall, m.AccessCheck)
	}
	// ...and a message must cost vastly more than any local operation
	// (DSM-era networks).
	if m.MsgLatency < 100*m.InstrCost() {
		t.Errorf("MsgLatency (%d) too cheap relative to instrumentation", m.MsgLatency)
	}
	// An 8 KB page transfer should be latency+bandwidth dominated: its
	// transmission time at least matches the message latency.
	if xfer := int64(8192 * m.PerByte); xfer < m.MsgLatency {
		t.Errorf("page transfer (%d latency + %d transmission) not bandwidth-significant", m.MsgLatency, xfer)
	}
}

package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"lrcrace/internal/telemetry/promtest"
)

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs_total", "Requests.", Label{"proc", "0"})
	c.Add(3)
	c.Add(4)
	if c.Value() != 7 {
		t.Fatalf("counter = %d, want 7", c.Value())
	}
	// Same name+labels returns the same instrument.
	if reg.Counter("reqs_total", "Requests.", Label{"proc", "0"}) != c {
		t.Fatal("counter handle not shared")
	}

	g := reg.Gauge("temp", "Temperature.")
	g.Set(1.5)
	g.Set(2.25)
	if g.Value() != 2.25 {
		t.Fatalf("gauge = %v, want 2.25", g.Value())
	}

	h := reg.Histogram("lat", "Latency.", []float64{10, 100, 1000})
	for _, v := range []float64{5, 50, 500, 5000, 7} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count = %d, want 5", h.Count())
	}
	if h.Sum() != 5562 {
		t.Fatalf("hist sum = %v, want 5562", h.Sum())
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("x", "")
}

func TestWritePromFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("msgs_total", "Messages.", Label{"type", "LockReq"}).Add(4)
	reg.Counter("msgs_total", "Messages.", Label{"type", "Barrier"}).Add(2)
	reg.Gauge("vtime_ns", "Virtual time.").Set(1500000)
	reg.Histogram("wait_ns", "Wait.", []float64{10, 20}).Observe(15)
	reg.Histogram("wait_ns", "Wait.", []float64{10, 20}).Observe(25)

	var b bytes.Buffer
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP msgs_total Messages.
# TYPE msgs_total counter
msgs_total{type="LockReq"} 4
msgs_total{type="Barrier"} 2
# HELP vtime_ns Virtual time.
# TYPE vtime_ns gauge
vtime_ns 1500000
# HELP wait_ns Wait.
# TYPE wait_ns histogram
wait_ns_bucket{le="10"} 0
wait_ns_bucket{le="20"} 1
wait_ns_bucket{le="+Inf"} 2
wait_ns_sum 40
wait_ns_count 2
`
	if got := b.String(); got != want {
		t.Fatalf("WriteProm output:\n%s\nwant:\n%s", got, want)
	}

	// Deterministic: a second exposition is byte-identical.
	var b2 bytes.Buffer
	if err := reg.WriteProm(&b2); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Fatal("WriteProm is not deterministic")
	}
}

func TestSnapshotAndCounterTotal(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("net_bytes_total", "", Label{"type", "A"}).Add(100)
	reg.Counter("net_bytes_total", "", Label{"type", "B"}).Add(50)
	reg.Counter("net_bytes", "", Label{"type", "C"}).Add(999) // prefix trap
	reg.Gauge("run_ns", "").Set(42)
	reg.Histogram("lat", "", []float64{10}).Observe(3)

	s := reg.Snapshot()
	if got := s.Counters[`net_bytes_total{type="A"}`]; got != 100 {
		t.Fatalf("snapshot counter = %d, want 100", got)
	}
	if got := s.CounterTotal("net_bytes_total"); got != 150 {
		t.Fatalf("CounterTotal = %d, want 150 (must not include net_bytes)", got)
	}
	if got := s.CounterTotal(`net_bytes_total{type="B"}`); got != 50 {
		t.Fatalf("CounterTotal of a full series key = %d, want that series' 50", got)
	}
	if s.Gauges["run_ns"] != 42 {
		t.Fatalf("snapshot gauge = %v", s.Gauges["run_ns"])
	}
	h := s.Histograms["lat"]
	if h.Count != 1 || h.Sum != 3 || len(h.Buckets) != 1 || h.Buckets[0].Count != 1 {
		t.Fatalf("snapshot histogram = %+v", h)
	}

	// JSON round-trip.
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.CounterTotal("net_bytes_total") != 150 {
		t.Fatal("snapshot JSON round-trip lost counters")
	}
}

func TestLabelKeyOrderInsensitive(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("m", "", Label{"x", "1"}, Label{"y", "2"})
	b := reg.Counter("m", "", Label{"y", "2"}, Label{"x", "1"})
	if a != b {
		t.Fatal("label order changed series identity")
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `m{x="1",y="2"} 0`) {
		t.Fatalf("labels not sorted in exposition:\n%s", buf.String())
	}
}

// keyedFixture loads the fixed three-snapshot input whose rendering and
// aggregate were recorded at the commit before WriteKeyedProm and Merge
// existed (sweep.WriteSnapshotsProm, sweep.mergeSnapshots).
func keyedFixture(t *testing.T) map[string]*Snapshot {
	t.Helper()
	raw, err := os.ReadFile("testdata/keyed_input.json")
	if err != nil {
		t.Fatal(err)
	}
	var in map[string]*Snapshot
	if err := json.Unmarshal(raw, &in); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestKeyedPromMatchesRecorded holds WriteKeyedProm to the recorded
// exposition byte for byte, except the one documented difference: an id is
// now escaped like any other label value (the recording spliced x"y in raw,
// which no parser accepts).
func TestKeyedPromMatchesRecorded(t *testing.T) {
	want, err := os.ReadFile("testdata/keyed_parent.prom")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteKeyedProm(&got, "cell", keyedFixture(t)); err != nil {
		t.Fatal(err)
	}
	escaped := strings.ReplaceAll(string(want), `cell="x"y-`, `cell="x\"y-`)
	if escaped == string(want) {
		t.Fatal("recorded exposition has no raw-quote id; the fixture lost its escaping case")
	}
	if got.String() != escaped {
		t.Fatalf("WriteKeyedProm output:\n%s\nwant:\n%s", got.String(), escaped)
	}
	types := promtest.Check(t, got.String())
	if types["net_msgs"] != "counter" || types["net_msgs_total"] != "counter" || types["run_procs"] != "gauge" {
		t.Fatalf("family types = %v", types)
	}
}

// TestMergeMatchesRecorded folds Merge over the fixture in id order and
// compares with the recorded aggregate document.
func TestMergeMatchesRecorded(t *testing.T) {
	want, err := os.ReadFile("testdata/merge_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	in := keyedFixture(t)
	agg := NewSnapshot()
	for _, id := range sortedKeys(in) {
		agg.Merge(in[id])
	}
	got, err := json.MarshalIndent(agg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got)+"\n" != string(want) {
		t.Fatalf("Merge aggregate:\n%s\nwant:\n%s", got, want)
	}
	// Merge copies bucket slices: the inputs are untouched.
	if h := in["FFT-s0.25-p2"].Histograms["dsm_barrier_wait_ns"]; h.Count != 6 || h.Buckets[1].Count != 4 {
		t.Fatalf("Merge mutated its input: %+v", h)
	}
}

// TestPropertyMergeCommutes: Merge(a, b) == Merge(b, a) for random
// snapshots over a shared key space (same bucket structure per key, as runs
// sharing the registration code have).
func TestPropertyMergeCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	keys := []string{"a_total", `a_total{k="v"}`, "a", `b{x="1",y="2"}`, "c_ns"}
	random := func() *Snapshot {
		s := NewSnapshot()
		for _, k := range keys {
			if rng.Intn(3) > 0 {
				s.Counters[k] = rng.Int63n(1 << 40)
			}
			if rng.Intn(3) > 0 {
				s.Gauges[k] = rng.Float64() * 1e9
			}
			if rng.Intn(3) > 0 {
				h := HistSnapshot{Sum: rng.Float64() * 1e6}
				for i := 0; i <= len(k)%3; i++ {
					h.Count += rng.Int63n(100)
					h.Buckets = append(h.Buckets, BucketCount{LE: float64(10 * (i + 1)), Count: h.Count})
				}
				s.Histograms[k] = h
			}
		}
		return s
	}
	merged := func(a, b *Snapshot) *Snapshot {
		out := NewSnapshot()
		out.Merge(a)
		out.Merge(b)
		return out
	}
	for i := 0; i < 200; i++ {
		a, b := random(), random()
		if ab, ba := merged(a, b), merged(b, a); !reflect.DeepEqual(ab, ba) {
			t.Fatalf("iteration %d: Merge(a,b) = %+v, Merge(b,a) = %+v", i, ab, ba)
		}
	}
}

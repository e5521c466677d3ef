package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a small metrics registry: counters, gauges and histograms
// with optional labels, Prometheus-style text exposition, and a
// JSON-serializable Snapshot. It is safe for concurrent use; instrument
// handles (Counter/Gauge/Histogram) are lock-free after creation.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// Label is one metric label pair.
type Label struct {
	Key, Value string
}

type family struct {
	name, help, typ string // typ: "counter", "gauge", "histogram"
	series          map[string]metric
	order           []string
}

type metric interface{}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := labels
	if len(ls) > 1 {
		ls = append([]Label(nil), labels...)
		sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	}
	b := make([]byte, 0, 64)
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l.Value) // the bytes of %q
	}
	return string(b)
}

// seriesName renders name{k="v",...} for exposition and snapshot keys.
func seriesName(name, lk string) string {
	if lk == "" {
		return name
	}
	return name + "{" + lk + "}"
}

func (r *Registry) family(name, help, typ string) *family {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]metric)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

func (f *family) get(lk string, mk func() metric) metric {
	m := f.series[lk]
	if m == nil {
		m = mk()
		f.series[lk] = m
		f.order = append(f.order, lk)
	}
	return m
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float64.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution (cumulative on exposition).
type Histogram struct {
	bounds []float64 // upper bounds, ascending; an implicit +Inf follows
	counts []atomic.Int64
	count  atomic.Int64
	sumMu  sync.Mutex
	sum    float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumMu.Lock()
	h.sum += v
	h.sumMu.Unlock()
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 {
	h.sumMu.Lock()
	defer h.sumMu.Unlock()
	return h.sum
}

// snapshot freezes the histogram with cumulative bucket counts.
func (h *Histogram) snapshot() HistSnapshot {
	hs := HistSnapshot{Count: h.Count(), Sum: h.Sum()}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		hs.Buckets = append(hs.Buckets, BucketCount{LE: b, Count: cum})
	}
	return hs
}

// Counter returns (creating if needed) the counter name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "counter")
	return f.get(labelKey(labels), func() metric { return &Counter{} }).(*Counter)
}

// Gauge returns (creating if needed) the gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "gauge")
	return f.get(labelKey(labels), func() metric { return &Gauge{} }).(*Gauge)
}

// Histogram returns (creating if needed) the histogram name{labels} with
// the given ascending upper bounds (nil → LatencyBuckets). Bounds are fixed
// by the first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "histogram")
	return f.get(labelKey(labels), func() metric {
		if bounds == nil {
			bounds = LatencyBuckets
		}
		return &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	}).(*Histogram)
}

// formatFloat is the registry's sample format: integral values print as
// integers, everything else in Go's shortest round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return formatG(v)
}

// formatG is the snapshot renderer's sample format, %g: what a keyed
// /metrics has always carried for gauge values and histogram bounds, kept
// so those series stay byte-stable for scrapers.
func formatG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteProm writes the registry in the Prometheus text exposition format,
// deterministically ordered (families in registration order, series in
// creation order).
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := promWriter{w: w}
	for _, name := range r.order {
		f := r.families[name]
		p.header(f.name, f.help, f.typ)
		for _, lk := range f.order {
			switch v := f.series[lk].(type) {
			case *Counter:
				p.sample(f.name, lk, strconv.FormatInt(v.Value(), 10))
			case *Gauge:
				p.sample(f.name, lk, formatFloat(v.Value()))
			case *Histogram:
				p.histogram(f.name, lk, v.snapshot(), formatFloat)
			}
		}
	}
	return p.err
}

// promWriter is the one emitter of exposition lines: Registry.WriteProm
// and WriteKeyedProm both go through it. The first write error sticks.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...interface{}) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// header opens a family: its # HELP line when there is help text, and its
// one # TYPE line.
func (p *promWriter) header(name, help, typ string) {
	if help != "" {
		p.printf("# HELP %s %s\n", name, help)
	}
	p.printf("# TYPE %s %s\n", name, typ)
}

func (p *promWriter) sample(name, lk, value string) {
	p.printf("%s %s\n", seriesName(name, lk), value)
}

// histogram writes one histogram series — cumulative buckets, the implicit
// +Inf bucket, sum and count — with format rendering bounds and sum.
func (p *promWriter) histogram(name, lk string, h HistSnapshot, format func(float64) string) {
	for _, b := range h.Buckets {
		p.sample(name+"_bucket", joinLabels(lk, fmt.Sprintf("le=%q", format(b.LE))), strconv.FormatInt(b.Count, 10))
	}
	p.sample(name+"_bucket", joinLabels(lk, `le="+Inf"`), strconv.FormatInt(h.Count, 10))
	p.sample(name+"_sum", lk, format(h.Sum))
	p.sample(name+"_count", lk, strconv.FormatInt(h.Count, 10))
}

// joinLabels joins two rendered label lists, either of which may be empty.
func joinLabels(a, b string) string {
	if a == "" || b == "" {
		return a + b
	}
	return a + "," + b
}

// HistSnapshot is a Histogram frozen for serialization. Bucket counts are
// cumulative, matching the exposition format.
type HistSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Buckets []BucketCount `json:"buckets"`
}

// BucketCount is one cumulative histogram bucket. Only finite bounds are
// listed; the implicit +Inf bucket's cumulative count is the snapshot's
// Count field.
type BucketCount struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Snapshot is a registry frozen for serialization: the machine-readable
// form of a run's metrics. Keys are series names (name or name{labels}).
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// NewSnapshot returns an empty snapshot: the zero of Merge.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistSnapshot),
	}
}

// splitKey splits a series key into its family name and rendered label
// list: name{k="v",...} → (name, `k="v",...`), name → (name, "").
func splitKey(key string) (name, lk string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], strings.TrimSuffix(key[i+1:], "}")
	}
	return key, ""
}

// Snapshot freezes the registry.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := NewSnapshot()
	for _, name := range r.order {
		f := r.families[name]
		for _, lk := range f.order {
			key := seriesName(f.name, lk)
			switch v := f.series[lk].(type) {
			case *Counter:
				s.Counters[key] = v.Value()
			case *Gauge:
				s.Gauges[key] = v.Value()
			case *Histogram:
				s.Histograms[key] = v.snapshot()
			}
		}
	}
	return s
}

// wallDependentSeries are the metric families Canonical strips: end-to-end
// and restore wall times, and the flight recorder's trip count. Everything
// else, the reliable sublayer's retransmission and dedup counters included
// (its retries fire on the scheduler's virtual clock), repeats exactly.
var wallDependentSeries = map[string]bool{
	"run_wall_ns":                true,
	"run_recovery_wall_ns":       true,
	"dsm_recovery_wall_ns_total": true,
	"telemetry_trips_total":      true,
}

// Canonical returns a copy of the snapshot with the series of
// wallDependentSeries removed. What remains is a function of the
// deterministic virtual-time simulation alone, so every workload — lossy
// and crash-recovering ones included — canonicalizes to byte-identical JSON
// across runs: the form the sweep aggregator and golden tests pin. A lossy
// run's wire repair stays in it: net_retransmits_total,
// net_retrans_bytes_total, net_deduped_total and the Retransmit and
// LinkDead event counts.
func (s *Snapshot) Canonical() *Snapshot {
	return &Snapshot{
		Counters:   canonicalSeries(s.Counters),
		Gauges:     canonicalSeries(s.Gauges),
		Histograms: canonicalSeries(s.Histograms),
	}
}

func canonicalSeries[V any](m map[string]V) map[string]V {
	out := make(map[string]V)
	for k, v := range m {
		if base, _ := splitKey(k); !wallDependentSeries[base] {
			out[k] = v
		}
	}
	return out
}

// CounterTotal sums every counter series of the family name (e.g. all
// net_bytes_total{type=...} series). A series with no labels contributes
// its value directly, and a full series key selects that one series.
func (s *Snapshot) CounterTotal(name string) int64 {
	var n int64
	for k, v := range s.Counters {
		if base, _ := splitKey(k); base == name || k == name {
			n += v
		}
	}
	return n
}

// Merge adds o into s: counters and gauges sum key-wise, histograms merge
// when their bucket structures agree (a mismatched one keeps what s already
// holds — it cannot happen between runs that share the registration code).
// Gauges sum because every gauge a run publishes is a per-run total
// (virtual ns, memory bytes, checkpoint counts). It is the one place
// snapshots are summed: a sweep's aggregate document and the unlabeled
// rows of a keyed /metrics are both folds of Merge over NewSnapshot.
func (s *Snapshot) Merge(o *Snapshot) {
	for k, v := range o.Counters {
		s.Counters[k] += v
	}
	for k, v := range o.Gauges {
		s.Gauges[k] += v
	}
	for k, h := range o.Histograms {
		have, ok := s.Histograms[k]
		if !ok {
			h.Buckets = append([]BucketCount(nil), h.Buckets...)
			s.Histograms[k] = h
			continue
		}
		if len(have.Buckets) != len(h.Buckets) {
			continue
		}
		have.Count += h.Count
		have.Sum += h.Sum
		for i := range have.Buckets {
			have.Buckets[i].Count += h.Buckets[i].Count
		}
		s.Histograms[k] = have
	}
}

// keys returns the sorted series keys of one exposition type.
func (s *Snapshot) keys(typ string) []string {
	switch typ {
	case "counter":
		return sortedKeys(s.Counters)
	case "gauge":
		return sortedKeys(s.Gauges)
	}
	return sortedKeys(s.Histograms)
}

// write emits the series key of exposition type typ, when s has it, with
// lead prepended to its label list.
func (s *Snapshot) write(p *promWriter, typ, key, lead string) {
	name, lk := splitKey(key)
	lk = joinLabels(lead, lk)
	switch typ {
	case "counter":
		if v, ok := s.Counters[key]; ok {
			p.sample(name, lk, strconv.FormatInt(v, 10))
		}
	case "gauge":
		if v, ok := s.Gauges[key]; ok {
			p.sample(name, lk, formatG(v))
		}
	default:
		if h, ok := s.Histograms[key]; ok {
			p.histogram(name, lk, h, formatG)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteKeyedProm renders a keyed set of snapshots as one valid Prometheus
// text exposition: each family appears once (# TYPE emitted a single
// time), carrying every snapshot's series with a leading label="id" pair
// (the sweep labels cells cell="<id>", the detection service labels
// sessions session="<id>"; the id is escaped like any label value), and —
// for counters and gauges — the unlabeled aggregate row per original
// series, which is Merge over the snapshots in id order. Histograms are
// rendered per id only. Ordering is fully deterministic: counters, then
// gauges, then histograms; families, ids and series keys sorted.
func WriteKeyedProm(w io.Writer, label string, snaps map[string]*Snapshot) error {
	ids := sortedKeys(snaps)
	agg := NewSnapshot()
	leads := make([]string, len(ids)) // each id's rendered label="id" pair
	for i, id := range ids {
		agg.Merge(snaps[id])
		leads[i] = labelKey([]Label{{label, id}})
	}
	p := promWriter{w: w}
	for _, typ := range []string{"counter", "gauge", "histogram"} {
		// agg holds the union of every snapshot's keys.
		families := make(map[string][]string)
		for _, key := range agg.keys(typ) {
			name, _ := splitKey(key)
			families[name] = append(families[name], key)
		}
		for _, name := range sortedKeys(families) {
			p.header(name, "", typ)
			for i, id := range ids {
				for _, key := range families[name] {
					snaps[id].write(&p, typ, key, leads[i])
				}
			}
			if typ != "histogram" {
				for _, key := range families[name] {
					agg.write(&p, typ, key, "")
				}
			}
		}
	}
	return p.err
}

// MarshalJSON renders the snapshot with deterministic key order (Go maps
// marshal sorted, so the default marshaler already suffices; this exists to
// document the guarantee).
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot
	return json.Marshal((*alias)(s))
}

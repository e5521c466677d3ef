package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// env is what one benchmark run hands its workload.
type env struct {
	seed    int64
	seconds float64 // length of the timed region
	trace   bool    // traced run: spans, scoped telemetry, kernel drivers, per-layer metrics
	// tiny shrinks every program and kernel to smoke-test size and runs one
	// iteration. Goldens describe the full sizes, so tiny runs skip them.
	tiny   bool
	golden *goldens
	tr     *tracer // nil unless trace
	// cal samples the reference kernel before every program run of the
	// timed region; nil during set-up.
	cal    *calibrator
	outDir string // where traces go; inside the checkout
	tmp    string // scratch directory under outDir, removed when the process ends
	// kernels caches the kernel drivers' results: they do not depend on the
	// workload, so `-workload all` measures them once.
	kernels map[string]sample
}

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, so one slow page-cache miss does not decide it.
const setupRepeats = 9

// workload is one entry of the benchmark.
type workload struct {
	name, why string
	op        string // what one op is
	// setup builds the inputs and runs the warm-up iteration: the first
	// iteration of a process runs cold, so it belongs to setup_s, not to
	// the timed region.
	setup func(e *env) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// run repeats the workload's fixed-work iteration until more returns
	// false, recording into t.
	run(e *env, t *tally, more func() bool)
	close()
}

// sample is one reported number.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`    // samples behind a median
	HiP   float64 `json:"hi_p,omitempty"` // highest percentile with >= 10 samples beyond it...
	Hi    float64 `json:"hi,omitempty"`   // ...and its value
}

// tally is what the timed region of one run measured.
type tally struct {
	// One sample per iteration (service-burst: per session), split by
	// whether the iteration was traced. Untraced samples make the
	// end-to-end numbers; traced ones only the overhead figure.
	opNS, opNSBase, opNSTraced []float64
	ops                        int64 // ops completed in the timed region, detection on and off
	iterations                 int

	attempted, failed int
	failures          []string

	layer map[string][]float64 // per-layer samples, reported as their median
}

func newTally() *tally { return &tally{layer: map[string][]float64{}} }

// fail records one failed operation.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// add records one sample of a per-layer metric.
func (t *tally) add(name string, v float64) {
	t.layer[name] = append(t.layer[name], v)
}

// result is one finished run of one workload.
type result struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Iterations int     `json:"iterations"`
	TimedS     float64 `json:"timed_s"`
	// SpeedFactor is how slow the box ran the reference kernel during the
	// timed region, relative to its nominal time; the end-to-end host times
	// are already divided by it.
	SpeedFactor float64           `json:"speed_factor"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Failures    []string          `json:"failures,omitempty"`
	Metrics     map[string]sample `json:"metrics"`
}

func (r *result) correct() bool { return r.Failed == 0 }

// over divides a host time by the run's speed factor.
func (s sample) over(speed float64) sample {
	s.Value /= speed
	s.Hi /= speed
	return s
}

// medianSample reports the median of xs with its sample count and tail.
func medianSample(xs []float64, unit string) sample {
	p, v := tail(xs)
	return sample{Value: median(xs), Unit: unit, N: len(xs), HiP: p, Hi: v}
}

// runWorkload sets w up, measures it for e.seconds and assembles the
// metrics: the end-to-end set for an untraced run, the per-layer set for a
// traced one.
func runWorkload(w workload, e *env) (*result, error) {
	var setups []float64
	var inst instance
	setupCal := newCalibrator()
	e.cal = nil
	for k := 0; k < setupRepeats; k++ {
		if inst != nil {
			inst.close()
		}
		setupCal.sample()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if e.tiny {
			break
		}
	}
	setupCal.sample()
	defer inst.close()

	if e.trace {
		e.tr = newTracer()
	}
	t := newTally()
	e.cal = newCalibrator()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	inst.run(e, t, func() bool { return time.Now().Before(deadline) })
	timed := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	// Host times are reported as the reference box would have measured
	// them: divided by how slow this box ran the reference kernel meanwhile.
	speed := e.cal.factor()
	worked := timed - e.cal.spent.Seconds()

	res := &result{
		Workload: w.name, Seed: e.seed, Trace: e.trace, Seconds: e.seconds,
		Iterations: t.iterations, TimedS: timed, SpeedFactor: speed,
		Attempted: t.attempted, Failed: t.failed, Failures: t.failures,
		Metrics: map[string]sample{},
	}
	if t.attempted < 1 || t.ops < 1 || len(t.opNS) == 0 || len(t.opNSBase) == 0 {
		return nil, fmt.Errorf("%s: the timed region completed no work", w.name)
	}
	if !e.trace {
		res.Metrics["setup_s"] = medianSample(setups, "s").over(setupCal.factor())
		res.Metrics[opNS] = medianSample(t.opNS, "ns").over(speed)
		res.Metrics[opNSBase] = medianSample(t.opNSBase, "ns").over(speed)
		res.Metrics[opsPerS] = sample{Value: float64(t.ops) / worked * speed, Unit: "1/s"}
		res.Metrics["alloc_bytes_per_op"] = sample{Value: float64(m1.TotalAlloc-m0.TotalAlloc) / float64(t.ops), Unit: "B"}
		return res, nil
	}

	t.add("bench.speed_factor", speed)
	if len(t.opNSTraced) > 0 {
		t.add("bench.trace_overhead_pct", 100*(median(t.opNSTraced)/median(t.opNS)-1))
	}
	if e.kernels == nil {
		var err error
		if e.kernels, err = runKernels(e); err != nil {
			return nil, err
		}
	}
	for name, s := range e.kernels {
		res.Metrics[name] = s
	}
	for name, xs := range t.layer {
		if _, dup := res.Metrics[name]; dup {
			return nil, fmt.Errorf("%s: %s measured by a kernel driver and by the workload", w.name, name)
		}
		res.Metrics[name] = medianSample(xs, "")
	}
	if err := settleLayerMetrics(w.name, res.Metrics); err != nil {
		return nil, err
	}
	if err := writeTrace(e, w.name); err != nil {
		return nil, err
	}
	return res, nil
}

// settleLayerMetrics holds a traced run's metrics to the declared set:
// nothing undeclared, nothing missing that this workload or a kernel
// driver should have produced, 0 for layers that are not on its path.
func settleLayerMetrics(wname string, got map[string]sample) error {
	declared := map[string]metricDef{}
	for _, d := range perLayer {
		declared[d.Name] = d
	}
	var undeclared []string
	for name := range got {
		if _, ok := declared[name]; !ok {
			undeclared = append(undeclared, name)
		}
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return fmt.Errorf("%s: undeclared per-layer metrics %v", wname, undeclared)
	}
	for _, d := range perLayer {
		s, ok := got[d.Name]
		if !ok {
			if d.From == nil || slices.Contains(d.From, wname) {
				return fmt.Errorf("%s: per-layer metric %s was not measured", wname, d.Name)
			}
		}
		s.Unit = d.Unit
		got[d.Name] = s
	}
	return nil
}

// spans returns the tracer an iteration records into: the run's when the
// iteration is traced, none (a nil tracer records nothing) otherwise.
func (e *env) spans(traced bool) *tracer {
	if traced {
		return e.tr
	}
	return nil
}

// warmUp runs one untimed iteration during set-up and reports its first
// failure. Goldens are not checked here; the timed region checks them.
func warmUp(iteration func(t *tally)) error {
	warm := newTally()
	iteration(warm)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %s", warm.failures[0])
	}
	return nil
}

// iterate calls fn for iterations 0, 1, ... while more allows; a traced run
// traces the odd ones, so traced and untraced iterations interleave and
// drift cancels out of the overhead figure. A tiny run makes one iteration
// of each kind it needs.
func iterate(e *env, t *tally, more func() bool, fn func(i int, traced bool)) {
	for i := 0; ; i++ {
		fn(i, e.trace && i%2 == 1)
		t.iterations++
		if e.tiny {
			if !e.trace || i == 1 {
				return
			}
			continue
		}
		if !more() {
			return
		}
	}
}

// writeTrace writes the run's spans as Chrome trace-event JSON.
func writeTrace(e *env, wname string) error {
	dir := filepath.Join(e.outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, wname+".trace.json"))
	if err != nil {
		return err
	}
	if err := e.tr.writeChrome(f, wname); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Command racefind runs one of the paper's benchmark applications on the
// LRC DSM with on-the-fly race detection and prints every distinct race
// with its shared-variable name, plus the detector's work statistics —
// the tool-shaped version of the paper's §5 experiments.
//
// Usage:
//
//	racefind -app TSP -procs 8
//	racefind -app Water -procs 4 -protocol mw
//	racefind -app KV -racy                   # Go-native frontend (docs/GOFRONT.md)
//	racefind -app Sessions -hot-skew 0.8
//	racefind -app SOR -first
//	racefind -app Water -trace water.trc     # also write a post-mortem log
//	racefind -analyze water.trc              # offline analysis of a log
//	racefind -app TSP -trace-out tsp.json    # Chrome/Perfetto cluster timeline
//	racefind -app TSP -metrics-out tsp.prom  # Prometheus-style metrics
//	racefind -app TSP -flight-recorder 256   # dump last events on failure
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"lrcrace"
	"lrcrace/cmd/internal/cli"
)

func main() {
	app := flag.String("app", "TSP", "application: FFT, SOR, TSP, Water on the DSM; KV, Sessions on the Go-native happens-before frontend")
	racy := flag.Bool("racy", false, "go frontend: plant the workload's racy fast path")
	hotSkew := flag.Float64("hot-skew", 0, "go frontend: fraction of reads hitting the hot keys (0 = uniform)")
	ops := flag.Int("ops", 0, "go frontend: operations per client goroutine (0 = workload default)")
	seed := flag.Int64("seed", 0, "go frontend: workload traffic seed")
	procs := flag.Int("procs", 8, "number of DSM processes (go frontend: client goroutines)")
	scale := flag.Float64("scale", 1, "problem scale (1 = laptop default)")
	protocol := flag.String("protocol", "sw", "coherence protocol: sw (single-writer) or mw (multi-writer)")
	first := flag.Bool("first", false, "report only first races (§6.4)")
	diffs := flag.Bool("diff-writes", false, "derive write bitmaps from diffs (§6.5; implies -protocol mw)")
	explain := flag.Bool("explain", false, "print the happens-before derivation for each distinct race")
	traceOut := flag.String("trace", "", "also write a post-mortem trace log to this file (§7 baseline)")
	analyze := flag.String("analyze", "", "skip running: analyze an existing trace log offline")
	chromeOut := flag.String("trace-out", "", "write the run's protocol events as Chrome trace-event JSON (open in Perfetto or chrome://tracing)")
	metricsOut := flag.String("metrics-out", "", "write the run's metrics in Prometheus text format")
	flight := flag.Int("flight-recorder", 0, "arm the flight recorder: dump the last N events to stderr if the run fails (0 = off)")
	metricsAddr := flag.String("metrics-addr", "", "serve the run's live metrics as Prometheus text on this address under /metrics")
	flag.Parse()

	if *analyze != "" {
		f, err := os.Open(*analyze)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		addrs, err := lrcrace.AnalyzeTrace(f)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("post-mortem analysis of %s: %d racy address(es)\n", *analyze, len(addrs))
		for _, a := range addrs {
			fmt.Printf("  0x%x\n", uint64(a))
		}
		return
	}

	// Every flag goes into the configuration as the user set it; which
	// ones an app's engine cannot take is the validator's call (RunExperiment
	// reports it), not a second rule book here.
	proto, err := parseProtocol(*protocol)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *diffs {
		proto = lrcrace.MultiWriter
	}
	cfg := lrcrace.ExperimentConfig{
		App:          canonical(*app),
		Scale:        *scale,
		Procs:        *procs,
		Detect:       true,
		Racy:         *racy,
		HotKeySkew:   *hotSkew,
		OpsPerClient: *ops,
		Seed:         *seed,
		DSM: lrcrace.Config{
			Protocol:        proto,
			FirstOnly:       *first,
			WritesFromDiffs: *diffs,
		},
	}

	if *metricsAddr != "" {
		// A live endpoint needs the recorder handle before the run starts,
		// so build it here (handle-scoped — nothing global) and serve its
		// registry while the experiment executes.
		rec := lrcrace.NewTelemetryRecorder(lrcrace.TelemetryConfig{FlightN: *flight, Procs: *procs})
		cfg.Recorder = rec
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			rec.Metrics().WriteProm(w)
		})
		srv, addr, err := cli.Serve(*metricsAddr, cli.Mux(mux), 30*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		defer cli.Shutdown(srv, 2*time.Second)
		fmt.Printf("live metrics: http://%s/metrics\n", addr)
	} else if *chromeOut != "" || *metricsOut != "" || *flight > 0 {
		cfg.Telemetry = &lrcrace.TelemetryConfig{FlightN: *flight}
	}

	var tw *lrcrace.TraceWriter
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		tw, err = lrcrace.NewTraceWriter(f, *procs)
		if err != nil {
			log.Fatal(err)
		}
		cfg.DSM.Tracer = tw
	}

	res, err := lrcrace.RunExperiment(cfg)
	if err != nil {
		// If the flight recorder was armed, its dump already went to stderr
		// at the moment of failure.
		log.Fatal(err)
	}
	if rec := res.Telemetry; rec != nil {
		if *chromeOut != "" {
			writeFile(*chromeOut, rec.WriteChromeTrace)
			fmt.Printf("chrome trace: %s (%d procs + system track; load in Perfetto)\n", *chromeOut, rec.Procs())
		}
		if *metricsOut != "" {
			writeFile(*metricsOut, rec.Metrics().WriteProm)
			fmt.Printf("metrics: %s\n", *metricsOut)
		}
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace log: %s (%d events, %d bytes)\n", *traceOut, tw.Events(), tw.Bytes())
	}

	if gf := res.GoFront; gf != nil {
		fmt.Printf("%s on %d goroutines, go frontend (seed %d, hot-skew %g, racy %v)\n",
			cfg.App, gf.NumGs, cfg.Seed, cfg.HotKeySkew, cfg.Racy)
		fmt.Printf("virtual runtime %.1f ms\n\n", float64(res.VirtualNS)/1e6)
		printRaces(res, 14, false)
		s := gf.Stats
		fmt.Printf("\nfrontend: %d goroutines, %d loads, %d stores, %d sync ops\n",
			s.Goroutines, s.Loads, s.Stores, s.Syncs)
		fmt.Printf("detector: %d intervals, %d pairs examined, %d concurrent,\n",
			s.Intervals, s.PairsExamined, s.ConcurrentPairs)
		fmt.Printf("          %d bitmaps compared, %d word overlaps, %d records GCed\n",
			s.BitmapsCompared, s.WordOverlaps, s.RecordsGCed)
		return
	}

	fmt.Printf("%s (%s, %s) on %d processes, %s protocol\n",
		res.App.Name(), res.App.InputDesc(), res.App.SyncKinds(),
		*procs, cfg.DSM.Protocol)
	fmt.Printf("result verified; virtual runtime %.1f ms\n\n",
		float64(res.VirtualNS)/1e6)
	printRaces(res, 10, *explain)

	d := res.Det
	fmt.Printf("\ndetector: %d epochs, %d intervals, %d vector comparisons,\n",
		d.Epochs, d.IntervalsTotal, d.PairComparisons)
	fmt.Printf("          %d concurrent pairs, %d with page overlap, %d bitmaps compared\n",
		d.ConcurrentPairs, d.OverlappingPairs, d.BitmapsCompared)
	if d.SuppressedReports > 0 {
		fmt.Printf("          %d later-epoch reports suppressed by first-race filtering\n", d.SuppressedReports)
	}
}

// printRaces lists the run's distinct races, each under its variable's name
// quoted and padded to width; explain adds each race's happens-before
// derivation (DSM runs only).
func printRaces(res *lrcrace.ExperimentResult, width int, explain bool) {
	distinct := lrcrace.DedupRaces(res.Races)
	if len(distinct) == 0 {
		fmt.Println("no data races detected")
		return
	}
	fmt.Printf("%d dynamic race reports, %d distinct:\n", len(res.Races), len(distinct))
	for _, r := range distinct {
		kind := "read-write"
		if r.WriteWrite() {
			kind = "write-write"
		}
		fmt.Printf("  %-11s race on %-*q (addr 0x%x, epoch %d)\n",
			kind, width, res.VarName(r.Addr), uint64(r.Addr), r.Epoch)
		if explain {
			if text, ok := res.Sys.ExplainRace(r); ok {
				fmt.Println(indent(text, "      "))
			}
		}
	}
}

func writeFile(path string, write func(io.Writer) error) {
	if err := cli.WriteFile(path, write); err != nil {
		log.Fatal(err)
	}
}

func indent(text, prefix string) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}

// parseProtocol reads the -protocol flag: sw or mw.
func parseProtocol(name string) (lrcrace.Protocol, error) {
	switch name {
	case "sw":
		return lrcrace.SingleWriter, nil
	case "mw":
		return lrcrace.MultiWriter, nil
	}
	return 0, fmt.Errorf("unknown protocol %q (want sw or mw)", name)
}

// canonical spells app as the DSM benchmarks or the go-frontend workloads
// name it, ignoring case.
func canonical(app string) string {
	names := append(lrcrace.Apps(), lrcrace.GoWorkloads()...)
	for _, a := range names {
		if strings.EqualFold(a, app) {
			return a
		}
	}
	fmt.Fprintf(os.Stderr, "unknown app %q (have %v)\n", app, names)
	os.Exit(2)
	return ""
}

// Command bench is the repository's performance benchmark: steady-state
// events/s, ingest-to-OnMatch latency and a per-layer budget on four frozen
// workloads, driving internal/runtime in its production configuration from
// one generator goroutine in the same process. README.md in this directory
// is the metric catalogue and the method; BENCHMARK.json at the repository
// root declares the same workloads and metrics to the driver.
//
// Standard output carries one JSON object per workload and nothing else (the
// last line is the driver's result); the human-readable table goes to
// standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	stdruntime "runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// Trace modes: which of a run's two halves to execute.
const (
	traceOff  = 0 // end-to-end metrics, tracing off
	traceOn   = 1 // per-layer metrics from the traced legs
	traceBoth = 2 // one after the other, for a person at a terminal
)

// result is one workload's outcome: the driver's JSON object.
type result struct {
	Workload  string                 `json:"workload,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one half of a workload run.
type outcome struct {
	metrics           metrics
	attempted, failed int64
	correct           bool
}

// e2eRun is the untraced run: phases 1 to 5 at full size, then the
// correctness leg. It returns the end-to-end metrics.
func e2eRun(w *workload, cfg runConfig) (outcome, error) {
	g := newGenerator(w.stream, cfg.seed)
	_, genAllocs := genDryRun(g, 1_000_000)
	l := leg{
		setups:       setupSettle + setupRepeats,
		settleN:      int(float64(w.settleEvents) * cfg.scale),
		capN:         cfg.windowed(w.capEvents, w.capWindows, w.windowUnit),
		capWindows:   w.capWindows,
		pacedN:       int64(cfg.windowed(w.pacedEvents, w.pacedWindows, 1)),
		pacedWindows: w.pacedWindows,
	}
	// The checked prefix lies before the paced phase, where the measured
	// runtime counts its matches.
	checkN := min(cfg.scaled(w.checkEvents), cfg.scaled(warmupEvents)+l.settleN+l.capN)
	l.prefix = int64(checkN)
	r, walDir, err := endToEnd(w, cfg, g, l)
	_ = os.RemoveAll(walDir)
	if err != nil {
		return outcome{}, err
	}
	chk, err := checkAgainstOracle(w, cfg, g, checkN)
	if err != nil {
		return outcome{}, err
	}
	setups := make([]float64, len(r.setups))
	for i, s := range r.setups {
		setups[i] = s.total.Seconds()
	}
	m := metrics{
		"setup_s":              median(setups[setupSettle:]),
		"events_per_s":         r.capacity.rate,
		"cpu_us_per_event":     ns(r.capacity.cpu, l.capN) / 1e3,
		"match_latency_p50_ms": median(r.paced.p50),
		"match_latency_p90_ms": median(r.paced.p90),
		"allocs_per_event":     netAllocs(r.capacity.allocsPerEv, genAllocs),
		"state_mb":             median(r.setupStateMB[setupSettle:]),
	}
	whole := r.paced.whole
	fmt.Fprintf(os.Stderr, "%s: set-ups %.3f s, state %.1f MB; capacity windows %.0f events/s over %d events; paced windows p50 %.3f p90 %.3f ms, whole phase p50 %.3f p90 %.3f p95 %.3f p99 %.3f ms, samples %v, generator late p99 %.3f ms, sustained %v; matches %d; live heap after capacity %.1f MB\n",
		w.name, setups, r.setupStateMB, r.capacity.windowRates, l.capN, r.paced.p50, r.paced.p90,
		whole.quantile(0.5), whole.quantile(0.9), whole.quantile(0.95), whole.quantile(0.99),
		r.paced.samples, r.paced.lateP99, r.paced.sustained, r.matches, r.capacityStateMB)

	// Outputs are correct when the sampled queries' matches are the
	// oracle's, the oracle had matches to compare in every family (a 1/50
	// run is too short for that), and the measured runtime delivered as
	// many matches over the checked prefix as the correctness leg's.
	wrong := int64(chk.mismatches)
	if r.prefixMatches != chk.matches {
		wrong++
	}
	if chk.vacuous() && !cfg.smoke {
		wrong++
	}
	fmt.Fprintf(os.Stderr, "%s: check over the first %d events: %d matches, measured runtime %d; oracle matches of the sampled queries per family %v, %d sampled queries differ\n",
		w.name, checkN, chk.matches, r.prefixMatches, chk.oracleMatches, chk.mismatches)
	return outcome{
		metrics:   m,
		attempted: r.offered + int64(checkN),
		failed:    int64(r.ingestErrs) + int64(r.shed) + int64(r.paced.failedMatches) + wrong,
		correct:   wrong == 0,
	}, nil
}

// netAllocs takes the generator's own allocations (one header slab per
// slabLen events) out of a gross per-event allocation count.
func netAllocs(gross, gen float64) float64 { return gross - gen }

// runWorkload executes the halves mode asks for and merges their outcome.
func runWorkload(w *workload, cfg runConfig, mode int) (result, error) {
	// Start from an empty heap, as the driver's one run per process does,
	// whatever ran before in this process.
	debug.FreeOSMemory()
	res := result{Workload: w.name, Correct: true, Metrics: map[string]metricValue{}}
	add := func(defs []metricDef, o outcome) {
		for _, d := range defs {
			res.Metrics[d.name] = metricValue{o.metrics[d.name], d.unit}
		}
		res.Attempted += o.attempted
		res.Failed += o.failed
		res.Correct = res.Correct && o.correct
	}
	if mode != traceOn {
		o, err := e2eRun(w, cfg)
		if err != nil {
			return res, err
		}
		add(endToEndMetrics, o)
	}
	if mode != traceOff {
		o, err := layerRun(w, cfg)
		if err != nil {
			return res, err
		}
		add(perLayerMetrics, o)
	}
	return res, nil
}

// printTable writes one workload's metrics to standard error in catalogue
// order.
func printTable(res result) {
	fmt.Fprintf(os.Stderr, "\n%s  correct=%v attempted=%d failed=%d\n", res.Workload, res.Correct, res.Attempted, res.Failed)
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if v, ok := res.Metrics[d.name]; ok {
				fmt.Fprintf(os.Stderr, "  %-36s %16.4f %s\n", d.name, v.Value, v.Unit)
			}
		}
	}
}

// agree compares two sets of runs of the same code: every end-to-end metric
// of every workload must repeat within its own regression bound. It prints
// both values and their ratio (second over first) and reports whether all
// cells agreed.
func agree(first, second []result) bool {
	all := true
	fmt.Fprintf(os.Stderr, "\n%-16s %-24s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "ratio", "bound")
	for i := range first {
		for _, d := range endToEndMetrics {
			a, b := first[i].Metrics[d.name].Value, second[i].Metrics[d.name].Value
			ratio := b / a
			ok := ratio <= 1+d.bound && ratio >= 1-d.bound
			verdict := ""
			if !ok {
				all, verdict = false, "  DISAGREE"
			}
			fmt.Fprintf(os.Stderr, "%-16s %-24s %14.4f %14.4f %8.4f %6.2f%s\n", first[i].Workload, d.name, a, b, ratio, d.bound, verdict)
		}
	}
	return all
}

// options are the command line.
type options struct {
	names      string
	seed       int64
	seconds    float64
	mode       int
	smoke      bool
	agree      bool
	traceOut   string
	cpuProfile string
	memProfile string
	// scratchParent is where the run makes, and at exit removes, its own
	// directory for write-ahead logs.
	scratchParent string
}

func main() {
	o := options{scratchParent: ".bench_build"}
	flag.StringVar(&o.names, "workload", "all", "comma-separated workload names, or all")
	flag.Int64Var(&o.seed, "seed", 1, "stream seed: the same seed gives the same events")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured part; event counts scale with it")
	flag.IntVar(&o.mode, "trace", traceBoth, "0: end-to-end metrics, 1: per-layer metrics, 2: both")
	flag.BoolVar(&o.smoke, "smoke", false, "every workload at 1/50 size: checks that the benchmark builds and runs")
	flag.BoolVar(&o.agree, "agree", false, "run the set twice and fail unless every end-to-end metric repeats within its bound")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced legs' spans here as Chrome trace-event JSON (one workload)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole run here")
	flag.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile here at exit")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run executes the benchmark and writes one JSON object per workload run
// to stdout.
func run(o options, stdout io.Writer) error {
	if o.mode < traceOff || o.mode > traceBoth {
		return fmt.Errorf("-trace %d: want 0, 1 or 2", o.mode)
	}
	if o.smoke {
		o.seconds = runSeconds / 50.0
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds %v: want a positive length", o.seconds)
	}
	if o.agree && o.mode == traceOn {
		return fmt.Errorf("-agree compares end-to-end metrics: not with -trace 1")
	}
	var selected []*workload
	asked := strings.Split(o.names, ",")
	for _, w := range workloads() {
		if o.names == "all" || slices.Contains(asked, w.name) {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || (o.names != "all" && len(selected) != len(asked)) {
		return fmt.Errorf("-workload %q: unknown workload", o.names)
	}
	if o.traceOut != "" && len(selected) != 1 {
		return fmt.Errorf("-trace-out takes one workload")
	}
	if err := os.MkdirAll(o.scratchParent, 0o755); err != nil {
		return err
	}
	// A directory of this run's own: two runs in one checkout must not
	// remove each other's logs.
	scratch, err := os.MkdirTemp(o.scratchParent, "scratch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	cfg := runConfig{seed: o.seed, scale: o.seconds / runSeconds, scratch: scratch, smoke: o.smoke, traceOut: o.traceOut}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		defer func() {
			f, err := os.Create(o.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return
			}
			defer f.Close()
			stdruntime.GC()
			_ = pprof.Lookup("allocs").WriteTo(f, 0)
		}()
	}

	start := time.Now()
	sets := make([][]result, 1)
	if o.agree {
		sets = make([][]result, 2)
	}
	allCorrect := true
	out := json.NewEncoder(stdout)
	for rep := range sets {
		for _, w := range selected {
			res, err := runWorkload(w, cfg, o.mode)
			if err != nil {
				return err
			}
			printTable(res)
			allCorrect = allCorrect && res.Correct
			sets[rep] = append(sets[rep], res)
			if len(selected) == 1 && !o.agree {
				res.Workload = "" // the driver's object has exactly four keys
			}
			if err := out.Encode(res); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(os.Stderr, "\n%d workload run(s) in %.1f s\n", len(sets)*len(selected), time.Since(start).Seconds())
	if o.agree && !agree(sets[0], sets[1]) {
		return fmt.Errorf("two sets of runs of the same code disagree by more than the regression bounds")
	}
	if !allCorrect {
		return fmt.Errorf("outputs were wrong")
	}
	return nil
}

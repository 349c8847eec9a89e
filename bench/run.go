package main

import (
	"fmt"
	"os"
	stdruntime "runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/wal"
)

// Load shape at the declared run length (scale 1). A run's measured part is
// the capacity phase plus the paced phase; -seconds scales both, and the
// warm-up and the checked prefix, in proportion.
const (
	// runSeconds is BENCHMARK.json's run_seconds: what the workloads'
	// capEvents and pacedEvents were calibrated for.
	runSeconds = 20
	// warmupEvents fill the lazy per-schema router tables and the record and
	// batch pools before anything is timed. They end inside adaptive-q6's
	// first regime, so that set-up time and memory there do not depend on
	// how the first regime switch happens to go.
	warmupEvents = 25_000
	// A run sets up setupSettle+setupRepeats times and reports the median of
	// the last setupRepeats. The first three set-ups of a process take up to
	// twice the wall time of the later ones at the same CPU time: until Go's
	// collector has found its pace, they get no help from the second core.
	setupSettle  = 3
	setupRepeats = 5
	// sustainedLateMs: a paced window whose generator ran later than this
	// (p99) was not offered the schedule, and its matches count as failed.
	sustainedLateMs = 50.0
	// blockedCall is the Ingest duration above which the generator was
	// waiting on a shard queue rather than working; it also separates two
	// release bursts of the merger.
	blockedCall = 100 * time.Microsecond
)

// runConfig is one benchmark invocation's knobs.
type runConfig struct {
	seed  int64
	scale float64 // seconds / runSeconds
	// scratch is a directory inside the checkout for write-ahead logs.
	scratch string
	// smoke turns off the paced windows' lateness and sample-count floors:
	// a 1/50-size run only shows that the benchmark builds and runs, on a
	// machine that may be busy with other tests.
	smoke bool
	// traceOut, when set, receives the traced legs' spans.
	traceOut string
}

func (c runConfig) scaled(n int) int { return max(int(float64(n)*c.scale), 1) }

// windowed scales a phase's event count and cuts it into windows: whole
// windowUnits per window at full scale (whole regime cycles on
// adaptive-q6), merely equal windows below it.
func (c runConfig) windowed(events, windows, unit int) int {
	per := c.scaled(events) / windows
	if per >= unit {
		per -= per % unit
	}
	return max(per, 1) * windows
}

// parseAll compiles a workload's query texts.
func parseAll(texts []string) ([]*query.Query, error) {
	qs := make([]*query.Query, len(texts))
	for i, t := range texts {
		q, err := query.Parse(t)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		qs[i] = q
	}
	return qs, nil
}

// newRuntime creates the workload's runtime: the production defaults
// (BatchSize 256, QueueLen 8, router, sharing and range dispatch on) and,
// for a durable workload, a write-ahead log with fsync off in a fresh
// directory under cfg.scratch, returned so the caller can remove it.
func newRuntime(w *workload, cfg runConfig) (rt *runtime.Runtime, walDir string, err error) {
	rc := runtime.Config{Shards: w.shards}
	if !w.durable {
		return runtime.New(rc), "", nil
	}
	walDir, err = os.MkdirTemp(cfg.scratch, "wal-")
	if err != nil {
		return nil, "", err
	}
	rc.Durability = &runtime.DurConfig{Dir: walDir, Fsync: wal.FsyncOff}
	rt, _, err = runtime.NewDurable(rc)
	if err != nil {
		_ = os.RemoveAll(walDir)
		return nil, "", err
	}
	return rt, walDir, nil
}

// instance is one runtime under test with its stream.
type instance struct {
	w      *workload
	rt     *runtime.Runtime
	gen    *generator
	walDir string

	// OnMatch counts matches ending before pacedFrom, those ending inside
	// the checked prefix apart, and hands later ones to the latency
	// recorder. mark, when set, sees every match first (the traced leg's
	// clock). OnMatch runs on the merger goroutine only; the counts are read
	// after Close.
	counted, inPrefix int64
	prefix, pacedFrom int64
	lat               *latencyRecorder
	mark              func()

	ingestErrs int
}

// latencyRecorder turns OnMatch calls of the paced phase into per-window
// latency histograms. A match's latency runs from the due time of its last
// contributing event (Match.End is that event's index) to the callback.
type latencyRecorder struct {
	start     time.Time
	p         pacer
	perWindow int64
	hists     []*latHist
}

func (l *latencyRecorder) observe(i int64) {
	w := min(int(i/l.perWindow), len(l.hists)-1)
	l.hists[w].add(time.Since(l.start) - l.p.due(i))
}

func (in *instance) onMatch(m *core.Match) {
	if in.mark != nil {
		in.mark()
	}
	if m.End < in.pacedFrom {
		in.counted++
		if m.End < in.prefix {
			in.inPrefix++
		}
		return
	}
	in.lat.observe(m.End - in.pacedFrom)
}

func (in *instance) ingest(n int) {
	for i := 0; i < n; i++ {
		if err := in.rt.Ingest(in.gen.Next()); err != nil {
			in.ingestErrs++
		}
	}
}

// setupTimes splits one set-up's wall time.
type setupTimes struct{ total, register time.Duration }

// setup is phase 1, what an application pays before its first match: create
// the runtime, parse and register every query, and push the warm-up events
// through. g is rewound, so every set-up sees the stream from event 0.
// Matches ending before event prefix are counted for the correctness leg;
// those ending at event pacedFrom or later are latency samples.
func setup(w *workload, cfg runConfig, g *generator, prefix, pacedFrom int64, mark func()) (*instance, setupTimes, error) {
	in := &instance{w: w, gen: g, prefix: prefix, pacedFrom: pacedFrom, mark: mark}
	g.Rewind()
	var st setupTimes
	t0 := time.Now()
	var err error
	if in.rt, in.walDir, err = newRuntime(w, cfg); err != nil {
		return nil, st, err
	}
	for i, text := range w.queries {
		q, err := query.Parse(text)
		if err == nil {
			t1 := time.Now()
			_, err = in.rt.Register(q, w.core, in.onMatch)
			st.register += time.Since(t1)
		}
		if err != nil {
			in.close()
			_ = os.RemoveAll(in.walDir)
			return nil, st, fmt.Errorf("%s: query %d: %w", w.name, i, err)
		}
	}
	in.ingest(cfg.scaled(warmupEvents))
	st.total = time.Since(t0)
	return in, st, nil
}

// close is phase 5: drain the runtime. A durable workload's log directory
// stays for the caller to scan and remove.
func (in *instance) close() time.Duration {
	t0 := time.Now()
	_ = in.rt.Close()
	return time.Since(t0)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeap forces collection (twice, so sync.Pool victim caches are gone
// too and the figure does not depend on where a GC cycle happened to be)
// and returns the bytes still reachable.
func liveHeap() uint64 {
	stdruntime.GC()
	stdruntime.GC()
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// capacityResult is phase 2's outcome.
type capacityResult struct {
	windowRates []float64 // events/s per window
	rate        float64   // their median
	// wall and cpu (process user+sys) cover the whole phase.
	wall, cpu   time.Duration
	allocsPerEv float64 // gross: includes the generator's own
	// ingest-side clocks, filled only when every call is timed
	inIngest, blocked time.Duration
}

// capacity is phase 2: a closed loop over a fixed event count in equal
// windows. The single generator calls Ingest back to back and is slowed
// only by backpressure, so the rate it reaches is the highest sustainable
// one. Untraced, no clock is read per event; with tr set, every Ingest
// call is clocked and calls longer than blockedCall are kept as spans.
func (in *instance) capacity(n, windows int, tr *tracer) capacityResult {
	var res capacityResult
	per := n / windows
	m0 := mallocs()
	t0 := time.Now()
	c0 := cpuTime()
	t := t0
	for w := 0; w < windows; w++ {
		if tr == nil {
			in.ingest(per)
		} else {
			in.ingestTraced(per, tr, &res)
		}
		now := time.Now()
		res.windowRates = append(res.windowRates, float64(per)/now.Sub(t).Seconds())
		t = now
	}
	res.rate = median(res.windowRates)
	res.wall, res.cpu = t.Sub(t0), cpuTime()-c0
	res.allocsPerEv = float64(mallocs()-m0) / float64(n)
	return res
}

func (in *instance) ingestTraced(n int, tr *tracer, res *capacityResult) {
	for i := 0; i < n; i++ {
		ev := in.gen.Next()
		t0 := tr.now()
		err := in.rt.Ingest(ev)
		d := tr.now() - t0
		if err != nil {
			in.ingestErrs++
		}
		res.inIngest += d
		if d > blockedCall {
			res.blocked += d
			tr.spans = append(tr.spans, span{name: "runtime.ingest", start: t0, end: t0 + d, parent: -1, trace: ev.Ts / replicaBatch})
		}
	}
}

// pacedResult is phase 4's outcome, per window.
type pacedResult struct {
	events    int64
	p50, p90  []float64 // ms
	samples   []int
	lateP99   []float64 // generator lateness, ms
	sustained []bool
	// whole is the phase's latencies in one histogram, for the percentiles
	// a single window has too few samples beyond.
	whole *latHist
	// failedMatches are the matches of windows that were not sustained.
	failedMatches int
}

// paced is phase 4: an open loop of total events, in equal windows, at the
// workload's fixed absolute rate. The latencies are read by finishPaced
// after close.
func (in *instance) paced(total int64, windows int) pacedResult {
	p := pacer{rate: in.w.rate}
	perWindow := total / int64(windows)
	in.lat = &latencyRecorder{p: p, perWindow: perWindow}
	lates := make([]*latHist, windows)
	for i := range lates {
		in.lat.hists = append(in.lat.hists, newLatHist())
		lates[i] = newLatHist()
	}
	if in.gen.next != in.pacedFrom {
		panic(fmt.Sprintf("paced phase starts at event %d, recorder expects %d", in.gen.next, in.pacedFrom))
	}
	// The first paced Ingest happens after this write and reaches the merger
	// through the shard queues, which orders it before every observe call.
	in.lat.start = time.Now()
	runPaced(p, total,
		func() time.Duration { return time.Since(in.lat.start) },
		time.Sleep,
		func(int64) {
			if err := in.rt.Ingest(in.gen.Next()); err != nil {
				in.ingestErrs++
			}
		},
		func(i int64, d time.Duration) { lates[min(int(i/perWindow), len(lates)-1)].add(d) })
	res := pacedResult{events: total}
	for _, h := range lates {
		res.lateP99 = append(res.lateP99, h.quantile(0.99))
	}
	return res
}

// finishPaced reads the latency histograms; call it after close, when the
// merger has delivered every match.
func (in *instance) finishPaced(res *pacedResult, smoke bool) {
	for w, h := range in.lat.hists {
		ok := smoke || (res.lateP99[w] <= sustainedLateMs && supported(0.99, h.n))
		res.sustained = append(res.sustained, ok)
		res.samples = append(res.samples, h.n)
		res.p50 = append(res.p50, h.quantile(0.5))
		res.p90 = append(res.p90, h.quantile(0.9))
		if !ok {
			res.failedMatches += h.n
		}
	}
	res.whole = merged(in.lat.hists)
}

// leg is the shape of one end-to-end leg. With tr set, every Ingest call
// and every OnMatch is clocked.
type leg struct {
	setups       int // how often to set up; the last runtime goes on
	settleN      int // events ingested, closed loop and untimed, before phase 2
	capN         int // capacity-phase events
	capWindows   int
	pacedN       int64 // paced-phase events; 0 skips the phase
	pacedWindows int
	prefix       int64 // matches ending before this event are counted apart
	tr           *tracer
}

// e2eResult is one end-to-end leg: phases 1 to 5 on one runtime.
type e2eResult struct {
	setups   []setupTimes
	capacity capacityResult
	metrics  runtime.Metrics // phase 3 snapshot
	// Live heap the runtime holds, net of what was live before it was
	// created: after each set-up, and after the capacity phase.
	setupStateMB    []float64
	capacityStateMB float64
	paced           pacedResult
	closeDur        time.Duration
	// matches counts deliveries ending before the paced phase,
	// prefixMatches those of them ending inside the leg's prefix.
	matches, prefixMatches int64
	ingestErrs             int
	shed                   uint64
	offered                int64
}

// endToEnd runs phases 1 to 5: set up (keeping the last runtime), capacity,
// snapshot, paced, drain. It returns a durable workload's log directory,
// which the caller removes.
func endToEnd(w *workload, cfg runConfig, g *generator, l leg) (*e2eResult, string, error) {
	res := &e2eResult{}
	var mark func()
	if l.tr != nil {
		// Runs on the merger goroutine only; read after close.
		mark = func() { l.tr.marks = append(l.tr.marks, l.tr.now()) }
	}
	warm := cfg.scaled(warmupEvents)
	var in *instance
	var base uint64
	// stateMB is what the runtime holds now. Metrics rides the worker
	// queues: when it returns, every event ingested so far has been
	// processed, so the heap holds only standing state.
	stateMB := func() float64 {
		in.rt.Metrics()
		return (float64(liveHeap()) - float64(base)) / (1 << 20)
	}
	for i := 0; i < l.setups; i++ {
		if in != nil {
			in.close()
			_ = os.RemoveAll(in.walDir)
			in = nil
		}
		base = liveHeap()
		next, st, err := setup(w, cfg, g, l.prefix, int64(warm+l.settleN+l.capN), mark)
		if err != nil {
			return nil, "", err
		}
		in = next
		res.setups = append(res.setups, st)
		res.setupStateMB = append(res.setupStateMB, stateMB())
	}
	in.ingest(l.settleN)
	res.capacity = in.capacity(l.capN, l.capWindows, l.tr)
	res.capacityStateMB = stateMB()
	// The same barrier makes the counters exact.
	res.metrics = in.rt.Metrics()
	if l.pacedN > 0 {
		res.paced = in.paced(l.pacedN, l.pacedWindows)
	}
	res.closeDur = in.close()
	if l.pacedN > 0 {
		in.finishPaced(&res.paced, cfg.smoke)
	}
	res.matches, res.prefixMatches = in.counted, in.inPrefix
	res.ingestErrs = in.ingestErrs
	res.shed = in.rt.Stats().EventsShed
	res.offered = int64(warm+l.settleN+l.capN) + l.pacedN
	return res, in.walDir, nil
}

package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/event"
	"repro/internal/optimizer"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/wal"
)

// metrics maps a catalogue name to its measured value.
type metrics map[string]float64

func ns(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// genDryRun times the generator alone over n events: the instrument's own
// cost inside every timed ingest loop, and its allocations, which
// allocs_per_event is net of.
func genDryRun(g *generator, n int) (nsPerEvent, allocsPerEvent float64) {
	g.Rewind()
	var sink *event.Event
	m0 := mallocs()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink = g.Next()
	}
	d := time.Since(t0)
	_ = sink
	return ns(d, n), float64(mallocs()-m0) / float64(n)
}

// setupLayers times the calls a registration makes into each layer, one
// layer at a time over the whole query set.
func setupLayers(w *workload, g *generator, m metrics) error {
	n := len(w.queries)
	t0 := time.Now()
	qs, err := parseAll(w.queries)
	if err != nil {
		return err
	}
	m["query.parse_us_per_query"] = ns(time.Since(t0), n) / 1e3

	t0 = time.Now()
	for _, q := range qs {
		if _, err := optimizer.Optimize(q, cost.UniformStats(q.Info, q.Within, 1), w.core.UseHash); err != nil {
			return err
		}
	}
	m["optimizer.optimize_us_per_query"] = ns(time.Since(t0), n) / 1e3

	t0 = time.Now()
	for _, q := range qs {
		if _, err := core.NewEngine(q, w.core, nil); err != nil {
			return err
		}
	}
	m["core.new_engine_us"] = ns(time.Since(t0), n) / 1e3

	r := router.New()
	t0 = time.Now()
	for i, q := range qs {
		r.Add(int64(i+1), q.Info, nil)
	}
	m["router.add_us_per_query"] = ns(time.Since(t0), n) / 1e3

	// The first Route call of a schema compiles its dispatch tables.
	g.Rewind()
	batch := make([]*event.Event, replicaBatch)
	for i := range batch {
		batch[i] = g.Next()
	}
	t0 = time.Now()
	r.Route(batch)
	m["router.first_route_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)

	const k = 200_000
	var buf []byte
	t0 = time.Now()
	for i := 0; i < k; i++ {
		buf = event.AppendEncoded(buf[:0], batch[i%len(batch)], 1)
	}
	m["event.encode_ns_per_event"] = ns(time.Since(t0), k)

	m["stats.observe_ns_per_event"] = 0
	if w.core.Adaptive {
		// What the leaf observers of the (single) adaptive query do per
		// event: one Observe per class; a class is taken to pass when its
		// alias is the event's symbol, which is how Query 6 names classes.
		q := qs[0]
		c := stats.NewCollector(q.Info, q.Within/2, 8, 1)
		g.Rewind()
		t0 = time.Now()
		for i := 0; i < k; i++ {
			ev := g.Next()
			for _, ci := range q.Info.Classes {
				c.Observe(ci.Idx, ev, ci.Alias == ev.Vals[1].S)
			}
		}
		m["stats.observe_ns_per_event"] = ns(time.Since(t0), k)
	}
	return nil
}

// snapshotCounts derives the per-event counts from phase 3's snapshot.
// They cover every event ingested up to the snapshot, warm-up included.
func snapshotCounts(r *e2eResult, m metrics) {
	st := r.metrics.Stats
	n := st.EventsIngested
	rm := r.metrics.Router
	m["router.deliveries_per_event"] = ratio(rm.Deliveries, n)
	m["router.residual_evals_per_event"] = ratio(rm.ResidualEvals, n)
	m["router.range_probes_per_event"] = ratio(rm.RangeProbes, n)
	m["runtime.fanout_per_event"] = ratio(st.EngineDeliveries, n)
	m["core.engine_rounds_per_kevent"] = 1000 * ratio(st.Engine.Rounds, n)
	m["core.plan_switches"] = float64(st.Engine.PlanSwitches)
	m["core.peak_mem_mb"] = float64(st.Engine.PeakMemBytes) / (1 << 20)
	m["runtime.matches_per_kevent"] = 1000 * ratio(st.Engine.Matches, n)
	m["runtime.shared_subplans"] = float64(st.SharedSubplans)
	m["runtime.engine_groups"] = float64(st.EngineGroups)
	m["runtime.shared_prefix_consumers"] = float64(st.SharedPrefixConsumers)
	m["runtime.events_shed"] = float64(r.shed)

	var in, out, evicted uint64
	seen := map[int64]bool{}
	for _, q := range r.metrics.Queries {
		if !seen[q.GroupID] {
			seen[q.GroupID] = true
			in, out, evicted = in+q.Operators.In, out+q.Operators.Out, evicted+q.Operators.Evicted
		}
	}
	for _, p := range r.metrics.Producers {
		in, out, evicted = in+p.Operators.In, out+p.Operators.Out, evicted+p.Operators.Evicted
	}
	m["core.records_in_per_event"] = ratio(in, n)
	m["core.records_out_per_event"] = ratio(out, n)
	m["core.evicted_per_event"] = ratio(evicted, n)

	m["wal.bytes_per_event"] = ratio(uint64(st.WAL.Bytes), st.WAL.AppendedEvents)
	m["wal.appends_per_kevent"] = 1000 * ratio(st.WAL.AppendedBatches, st.WAL.AppendedEvents)
	m["wal.checkpoints"] = float64(st.WAL.Checkpoints)
	m["wal.segments"] = float64(st.WAL.Segments)
	m["wal.fsyncs"] = float64(st.WAL.Fsyncs)
}

// scanLog times wal.Scan over the directory a durable run left: the read
// side of the log.
func scanLog(dir string) (mbPerS float64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var bytes int64
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			bytes += fi.Size()
		}
	}
	t0 := time.Now()
	if _, err := wal.Scan(dir); err != nil {
		return 0, err
	}
	return float64(bytes) / (1 << 20) / time.Since(t0).Seconds(), nil
}

// emitGap is the median gap between consecutive OnMatch calls inside one
// release burst of the merger: what delivering one more match costs.
func emitGap(marks []time.Duration) float64 {
	var gaps []float64
	for i := 1; i < len(marks); i++ {
		if d := marks[i] - marks[i-1]; d <= blockedCall {
			gaps = append(gaps, float64(d))
		}
	}
	if len(gaps) == 0 {
		return 0
	}
	return median(gaps)
}

// replayLeg runs the layer replica over the same stream prefix as the
// end-to-end legs and attributes its time to layers. It returns the
// replica's match count for the fidelity check.
func replayLeg(w *workload, cfg runConfig, g *generator, warm, n int, tr *tracer, m metrics) (int64, error) {
	qs, err := parseAll(w.queries)
	if err != nil {
		return 0, err
	}
	walDir := ""
	if w.durable {
		if walDir, err = os.MkdirTemp(cfg.scratch, "wal-"); err != nil {
			return 0, err
		}
		defer os.RemoveAll(walDir)
	}
	// The warm-up's spans go to a tracer of their own and are dropped: only
	// what follows is attributed, as in the capacity phase.
	r, err := newReplica(qs, w.core, w.shards, walDir, newTracer(), nil)
	if err != nil {
		return 0, err
	}
	g.Rewind()
	for i := 0; i < warm; i++ {
		if err := r.Ingest(g.Next()); err != nil {
			return 0, err
		}
	}
	r.tr = tr
	base := r.calls
	for i := 0; i < n; i++ {
		if err := r.Ingest(g.Next()); err != nil {
			return 0, err
		}
	}
	self, calls := selfTimes(tr.spans), r.calls
	if err := r.Close(); err != nil {
		return 0, err
	}

	deliveries := int(calls.deliveries - base.deliveries)
	rounds := int(calls.syncRounds - base.syncRounds)
	m["router.route_ns_per_event"] = ns(self["router.route"], n)
	m["core.feed_ns_per_delivery"] = ns(self["core.feed"], deliveries)
	m["core.feed_ns_per_event"] = ns(self["core.feed"], n)
	m["core.sync_rounds_per_event"] = float64(rounds) / float64(n)
	m["core.sync_ns_per_round"] = ns(self["core.sync"], rounds)
	m["core.sync_ns_per_event"] = ns(self["core.sync"], n)
	m["core.horizon_ns_per_event"] = ns(self["core.horizon"], n)
	m["subplan.feed_ns_per_delivery"] = ns(self["subplan.feed"], int(calls.prodDeliveries-base.prodDeliveries))
	m["subplan.feed_ns_per_event"] = ns(self["subplan.feed"], n)
	m["subplan.assemble_ns_per_event"] = ns(self["subplan.assemble"], n)
	m["subplan.assemble_ns_per_round"] = ns(self["subplan.assemble"], int(calls.prodRounds-base.prodRounds))
	m["wal.append_ns_per_event"] = ns(self["wal.append"], n)
	return r.matches, nil
}

// layerRun is the traced run: a reference end-to-end leg at a quarter of
// the capacity size (tracing off), the same leg with every Ingest and
// OnMatch clocked, the layer replica over the same prefix, and the set-up
// layers one by one. The three legs' match counts over the prefix must
// agree, or the run is not correct. It returns the per-layer metrics.
func layerRun(w *workload, cfg runConfig) (outcome, error) {
	m := metrics{}
	t0 := time.Now()
	g := newGenerator(w.stream, cfg.seed)
	m["gen.build_s"] = time.Since(t0).Seconds()
	m["gen.ns_per_event"], m["gen.allocs_per_event"] = genDryRun(g, 1_000_000)

	warm := cfg.scaled(warmupEvents)
	// A quarter of the capacity phase, and a short paced phase in one
	// window: it bounds the generator's lateness and gives the tail
	// percentiles the end-to-end metrics leave out.
	l := leg{setups: 1, capN: cfg.scaled(w.capEvents / 4), capWindows: 1,
		pacedN: int64(cfg.scaled(w.pacedEvents / 4)), pacedWindows: 1}
	capN := l.capN

	ref, walDir, err := endToEnd(w, cfg, g, l)
	if err != nil {
		return outcome{}, err
	}
	snapshotCounts(ref, m)
	m["runtime.register_us_per_query"] = ns(ref.setups[0].register, len(w.queries)) / 1e3
	m["runtime.close_ms"] = float64(ref.closeDur) / float64(time.Millisecond)
	m["runtime.state_after_capacity_mb"] = ref.capacityStateMB
	m["gen.late_p99_ms"] = slices.Max(ref.paced.lateP99)
	m["runtime.match_latency_p95_ms"] = ref.paced.whole.quantile(0.95)
	m["runtime.match_latency_p99_ms"] = ref.paced.whole.quantile(0.99)
	m["wal.scan_mb_per_s"] = 0
	if walDir != "" {
		m["wal.scan_mb_per_s"], err = scanLog(walDir)
		_ = os.RemoveAll(walDir)
		if err != nil {
			return outcome{}, err
		}
	}

	tr := newTracer()
	l.pacedN, l.tr = 0, tr
	traced, walDir, err := endToEnd(w, cfg, g, l)
	_ = os.RemoveAll(walDir)
	if err != nil {
		return outcome{}, err
	}
	m["runtime.ingest_ns_per_event"] = ns(traced.capacity.inIngest, capN)
	m["runtime.ingest_blocked_share"] = float64(traced.capacity.blocked) / float64(traced.capacity.wall)
	m["trace.overhead_share"] = 1 - float64(ref.capacity.wall)/float64(traced.capacity.wall)
	m["runtime.emit_gap_ns_per_match"] = emitGap(tr.marks)

	replayMatches, err := replayLeg(w, cfg, g, warm, capN, tr, m)
	if err != nil {
		return outcome{}, err
	}
	// The remainder after every replayed layer: queues, locks, the gather
	// sort, the merge heap, checkpoints — what cannot be called from outside.
	m["runtime.glue_ns_per_event"] = ns(ref.capacity.cpu, capN) - layerSum(m)

	if err := setupLayers(w, g, m); err != nil {
		return outcome{}, err
	}
	if cfg.traceOut != "" {
		if err := tr.writeChrome(cfg.traceOut); err != nil {
			return outcome{}, err
		}
	}

	out := outcome{
		metrics:   m,
		attempted: ref.offered + traced.offered + int64(warm+capN),
		failed:    int64(ref.ingestErrs+traced.ingestErrs) + int64(ref.shed+traced.shed) + int64(ref.paced.failedMatches),
		correct:   ref.matches == traced.matches && ref.matches == replayMatches,
	}
	if !out.correct {
		fmt.Fprintf(os.Stderr, "%s: match counts over the first %d events differ: runtime %d, traced runtime %d, replica %d\n",
			w.name, warm+capN, ref.matches, traced.matches, replayMatches)
		out.failed++
	}
	return out, nil
}

// layerSum adds up the replayed layers' time per event.
func layerSum(m metrics) float64 {
	return m["router.route_ns_per_event"] + m["core.feed_ns_per_event"] + m["core.sync_ns_per_event"] +
		m["core.horizon_ns_per_event"] + m["subplan.feed_ns_per_event"] + m["subplan.assemble_ns_per_event"] +
		m["wal.append_ns_per_event"]
}

// Allocation regression tests for the zero-allocation hot path: steady-
// state ingest must not allocate at all, match emission through a live
// callback included, and a runtime delivering matches stays within a small
// per-event budget.
package zstream_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	zstream "repro"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/workload"
)

// allocStream generates a monotone stock stream long enough for a warmup
// phase plus testing.AllocsPerRun's extra invocation.
func allocStream(n int, sel float64) []*event.Event {
	return workload.GenStocks(workload.StockSpec{
		N: n, Seed: 8, Names: []string{"IBM", "Sun", "Oracle"},
		Weights:    []float64{1, 1, 1},
		FixedPrice: map[string]float64{"Sun": workload.SelectivityPrice(sel)},
	})
}

// allocsPerEvent is testing.AllocsPerRun without its truncation to whole
// allocations per run, under which a path that allocates for two events in
// three reads as 0.
func allocsPerEvent(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(runs)
}

// TestIngestSteadyStateZeroAllocs drives an engine past its warmup (pool
// fill, buffer growth, compaction) on a match-free workload, then asserts
// that processing an event — including the assembly rounds that fire and
// evict along the way — performs zero heap allocations. The hash variant
// is the configuration the runtime's users run (UseHash): an equality join
// over 64 symbols in a window short enough that a symbol's records all
// evict between its arrivals, so its hash-index key empties and is
// re-created over and over.
func TestIngestSteadyStateZeroAllocs(t *testing.T) {
	names := make([]string, 64)
	weights := make([]float64, len(names))
	for i := range names {
		names[i], weights[i] = fmt.Sprintf("S%02d", i), 1
	}
	for _, tc := range []struct {
		name   string
		src    string
		cfg    core.Config
		events []*event.Event
	}{
		{"scan", `
			PATTERN IBM; Sun
			WHERE IBM.name = 'IBM' AND Sun.name = 'Sun' AND IBM.price > Sun.price + 1000000
			WITHIN 200 units`,
			core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64},
			allocStream(45000, 0.5)},
		{"hash", `
			PATTERN A; B
			WHERE A.name = B.name AND B.price > A.price + 1000000
			WITHIN 40 units`,
			core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64, UseHash: true},
			workload.GenStocks(workload.StockSpec{N: 45000, Seed: 8, Names: names, Weights: weights})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := core.NewEngine(query.MustParse(tc.src), tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			warm := 30000
			for _, ev := range tc.events[:warm] {
				eng.Process(ev)
			}
			i := warm
			avg := allocsPerEvent(10000, func() {
				eng.Process(tc.events[i])
				i++
			})
			// A handful of allocations in 10,000 events is a buffer still
			// settling; a per-event defect is two orders above that.
			if avg > 0.005 {
				t.Fatalf("steady-state ingest allocates %.4f allocs/event, want 0", avg)
			}
			if m := eng.Snapshot().Matches; m != 0 {
				t.Fatalf("workload expected to be match-free, got %d matches", m)
			}
		})
	}
}

// TestIngestSteadyStateZeroAllocsWithMatches is the stronger variant: the
// workload produces matches, but with a nil emit callback (counting only)
// the whole ingest+assembly+drain cycle still runs allocation-free —
// output records are pooled and recycled as the root buffer drains.
func TestIngestSteadyStateZeroAllocsWithMatches(t *testing.T) {
	q := query.MustParse(`
		PATTERN IBM; Sun
		WHERE IBM.name = 'IBM' AND Sun.name = 'Sun' AND IBM.price > Sun.price
		WITHIN 50 units`)
	eng, err := core.NewEngine(q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	events := allocStream(45000, 0.5)
	warm := 30000
	for _, ev := range events[:warm] {
		eng.Process(ev)
	}
	before := eng.Snapshot().Matches
	i := warm
	avg := testing.AllocsPerRun(10000, func() {
		eng.Process(events[i])
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state ingest+assembly allocates %.2f allocs/event, want 0", avg)
	}
	if after := eng.Snapshot().Matches; after == before {
		t.Fatal("measured region produced no matches; test is vacuous")
	}
}

// TestAssemblyAllocBudget pins the full serving path — ingest, assembly,
// match materialization through a live emit callback — on the Figure 8
// workload at exactly zero allocations: the callback borrows the engine's
// one scratch match, so emitting costs nothing once the first match has
// allocated it. The warm-up is long enough for the record pool to reach
// its high-water mark for the measured events.
func TestAssemblyAllocBudget(t *testing.T) {
	q := query.MustParse(`
		PATTERN IBM; Sun
		WHERE IBM.name = 'IBM' AND Sun.name = 'Sun' AND Sun.price > IBM.price + 90
		WITHIN 200 units`)
	var matches uint64
	eng, err := core.NewEngine(q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 256},
		func(*core.Match) { matches++ })
	if err != nil {
		t.Fatal(err)
	}
	// Uniform random prices (no pinned selectivity): the +90 constraint
	// makes matches rare-but-present.
	events := workload.GenStocks(workload.StockSpec{
		N: 90000, Seed: 8, Names: []string{"IBM", "Sun", "Oracle"},
		Weights: []float64{1, 1, 1},
	})
	warm := 80000
	for _, ev := range events[:warm] {
		eng.Process(ev)
	}
	matches = 0
	i := warm
	avg := allocsPerEvent(10000, func() {
		eng.Process(events[i])
		i++
	})
	if matches == 0 {
		t.Fatal("measured region produced no matches; test is vacuous")
	}
	if avg != 0 {
		t.Fatalf("serving path allocates %.4f allocs/event over %d matches, want 0", avg, matches)
	}
}

// TestRuntimeMatchDeliveryAllocs is the runtime's counterpart: with more
// than one match delivered per event, ingest through shard, engine, merge
// and OnMatch stays (almost) allocation-free, because the merger recycles
// every delivered match; a fresh Match per delivery cost 3 allocations
// per match here.
func TestRuntimeMatchDeliveryAllocs(t *testing.T) {
	// One P for the whole test, warm-up included: the pool's per-P caches
	// then never trade matches across Ps (which costs sync.Pool chain
	// allocations at a rate set by the scheduler, not by this code), and a
	// one-batch queue bounds the matches in flight, so the warm-up reaches
	// the pool's high-water mark.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rt := zstream.NewRuntime(zstream.WithShards(2), zstream.WithIngestBatch(64), zstream.WithQueueDepth(1))
	var delivered atomic.Uint64
	cq := zstream.MustCompile(`
		PATTERN A; B
		WHERE A.name = B.name AND B.price > A.price
		WITHIN 12 units`)
	if _, err := rt.Register(cq, zstream.OnMatch(func(m *zstream.Match) {
		if len(m.Fields) == 2 && m.Fields[1].Events[0].Ts == m.End {
			delivered.Add(1)
		}
	})); err != nil {
		t.Fatal(err)
	}
	events := allocStream(45000, 0.5)
	warm := 30000
	for i, ev := range events[:warm] {
		if i == warm-2000 {
			// Collect the warm-up's garbage now, so no GC empties the match
			// pool inside the measured region; the last 2,000 events
			// circulate the pool's survivors again.
			runtime.GC()
		}
		if err := rt.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 10000
	before := delivered.Load()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for _, ev := range events[warm : warm+runs] {
		if err := rt.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms)
	avg := float64(ms.Mallocs-mallocs) / runs
	perEvent := float64(delivered.Load()-before) / runs
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if perEvent < 1 {
		t.Fatalf("%.2f matches delivered per event, want at least 1", perEvent)
	}
	t.Logf("%.4f allocs/event at %.2f matches/event", avg, perEvent)
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of all Puts")
	}
	if avg >= 0.05 {
		t.Fatalf("runtime delivery allocates %.4f allocs/event at %.2f matches/event, want < 0.05", avg, perEvent)
	}
}

// TestRouterDeliverySteadyStateZeroAllocs pins the PR 3 invariant: the
// routed delivery path — classify a batch, deliver per-engine mini-batches
// through the pre-admitted fast path — allocates nothing per event in
// steady state, just like direct Process ingest.
func TestRouterDeliverySteadyStateZeroAllocs(t *testing.T) {
	r := router.New()
	engines := map[int64]*core.Engine{}
	for i := 0; i < 16; i++ {
		q := query.MustParse(fmt.Sprintf(`
			PATTERN A; B
			WHERE A.name = 'S%02d' AND A.price > 50 AND B.name = 'S%02d'
			  AND B.price < A.price - 1000000
			WITHIN 200 units`, i%8, i%8))
		eng, err := core.NewEngine(q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}, nil)
		if err != nil {
			t.Fatal(err)
		}
		engines[int64(i)] = eng
		r.Add(int64(i), q.Info, eng)
	}
	names := make([]string, 8)
	weights := make([]float64, 8)
	for i := range names {
		names[i] = fmt.Sprintf("S%02d", i)
		weights[i] = 1
	}
	events := workload.GenStocks(workload.StockSpec{N: 45000, Seed: 5, Names: names, Weights: weights})
	deliver := func(evs []*event.Event) {
		for _, sb := range r.Route(evs) {
			eng := sb.Payload.(*core.Engine)
			for _, d := range sb.Events {
				eng.ProcessAdmitted(d.Ev, d.Mask)
			}
		}
	}
	warm := 30000
	deliver(events[:warm])
	i := warm
	avg := testing.AllocsPerRun(10000, func() {
		deliver(events[i : i+1])
		i++
	})
	if avg != 0 {
		t.Fatalf("routed steady-state delivery allocates %.2f allocs/event, want 0", avg)
	}
	var processed uint64
	for _, eng := range engines {
		processed += eng.Snapshot().Events
	}
	if processed == 0 {
		t.Fatal("no engine received events; test is vacuous")
	}
}

// TestRuntimeIngestWALOffZeroAllocs pins the durability plane's zero-cost
// guarantee for runtimes that never opted in: with no WAL configured, the
// sharded runtime's steady-state ingest path — shard hash, pooled batch
// append, channel flush, worker dispatch, heartbeat merge — allocates
// nothing per event. Every WAL hook on the hot path hides behind one nil
// check.
func TestRuntimeIngestWALOffZeroAllocs(t *testing.T) {
	rt := zstream.NewRuntime(zstream.WithShards(2), zstream.WithIngestBatch(64))
	cq := zstream.MustCompile(`
		PATTERN A; B
		WHERE A.name = B.name AND B.price > A.price + 1000000
		WITHIN 100 units`)
	if _, err := rt.Register(cq); err != nil {
		t.Fatal(err)
	}
	events := allocStream(45000, 0.5)
	warm := 30000
	for _, ev := range events[:warm] {
		if err := rt.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	i := warm
	avg := testing.AllocsPerRun(10000, func() {
		if err := rt.Ingest(events[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("WAL-off runtime ingest allocates %.2f allocs/event, want 0", avg)
	}
	if st := rt.Stats(); st.WALEnabled || st.EventsIngested == 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

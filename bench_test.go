// Benchmarks, one per table and figure of the paper's evaluation (§6),
// plus the design-choice ablations (internal/experiments/ablations.go) and
// a few micro-benchmarks. Each benchmark
// exercises the central workload of its experiment and reports events/s;
// `cmd/zbench` runs the full parameter sweeps and prints the paper-style
// tables.
package zstream_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/event"
	"repro/internal/nfa"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/query"
	runtimepkg "repro/internal/runtime"
	"repro/internal/workload"
)

// benchEngine processes the events through a fresh engine per iteration and
// reports input throughput. Workload events carry pre-stamped sequence
// numbers, so engines share them without a per-event copy.
func benchEngine(b *testing.B, q *query.Query, cfg core.Config, events []*event.Event) {
	b.Helper()
	b.ReportAllocs()
	var matches uint64
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(q, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range events {
			eng.Process(ev)
		}
		eng.Flush()
		matches = eng.Snapshot().Matches
	}
	b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(matches), "matches")
}

func benchNFA(b *testing.B, q *query.Query, events []*event.Event) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := nfa.New(q)
		if err != nil {
			b.Fatal(err)
		}
		// materialize matches like the tree engine does
		m.SetEmit(func([]*event.Event) {})
		for _, ev := range events {
			m.Process(ev)
		}
		m.Flush()
	}
	b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/s")
}

func query4() *query.Query {
	return query.MustParse(`
		PATTERN IBM; Sun; Oracle
		WHERE IBM.name = 'IBM' AND Sun.name = 'Sun' AND Oracle.name = 'Oracle'
		AND IBM.price > Sun.price
		WITHIN 200 units`)
}

func query5() *query.Query {
	return query.MustParse(`
		PATTERN IBM; Sun; Oracle
		WHERE IBM.name = 'IBM' AND Sun.name = 'Sun' AND Oracle.name = 'Oracle'
		WITHIN 200 units`)
}

func query6() *query.Query {
	return query.MustParse(`
		PATTERN IBM; Sun; Oracle; Google
		WHERE IBM.name = 'IBM' AND Sun.name = 'Sun'
		AND Oracle.name = 'Oracle' AND Google.name = 'Google'
		AND Oracle.price > Sun.price AND Oracle.price > Google.price
		WITHIN 100 units`)
}

func query7() *query.Query {
	return query.MustParse(`
		PATTERN IBM; !Sun; Oracle
		WHERE IBM.name = 'IBM' AND Sun.name = 'Sun' AND Oracle.name = 'Oracle'
		WITHIN 200 units`)
}

func query8() *query.Query {
	return query.MustParse(`
		PATTERN P; J; C
		WHERE P.desc = 'publication' AND J.desc = 'project' AND C.desc = 'courses'
		AND P.ip = J.ip = C.ip
		WITHIN 10 hours`)
}

func stock3(n int, sel float64, weights []float64) []*event.Event {
	return workload.GenStocks(workload.StockSpec{
		N: n, Seed: 8, Names: []string{"IBM", "Sun", "Oracle"}, Weights: weights,
		FixedPrice: map[string]float64{"Sun": workload.SelectivityPrice(sel)},
	})
}

// --- Figure 8: Query 4, selectivity 1/8, three evaluators ------------------

func BenchmarkFig8Throughput(b *testing.B) {
	q := query4()
	events := stock3(6000, 0.125, []float64{1, 1, 1})
	b.Run("left-deep", func(b *testing.B) {
		benchEngine(b, q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 256}, events)
	})
	b.Run("right-deep", func(b *testing.B) {
		benchEngine(b, q, core.Config{Strategy: core.StrategyRightDeep, BatchSize: 256}, events)
	})
	b.Run("nfa", func(b *testing.B) { benchNFA(b, q, events) })
}

// --- Figure 9: cost-model estimation over the Figure 8 sweep ---------------

func BenchmarkFig9CostModel(b *testing.B) {
	q := query4()
	st := cost.UniformStats(q.Info, q.Within, 1.0/3)
	shape := plan.LeftDeep(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := optimizer.EstimateShape(q, st, false, plan.NegAuto, shape); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 10: Query 5, rare-IBM rates, three evaluators ------------------

func BenchmarkFig10Throughput(b *testing.B) {
	q := query5()
	events := workload.GenStocks(workload.StockSpec{
		N: 6000, Seed: 10, Names: []string{"IBM", "Sun", "Oracle"},
		Weights: []float64{1, 8, 8}})
	b.Run("left-deep", func(b *testing.B) {
		benchEngine(b, q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 256}, events)
	})
	b.Run("right-deep", func(b *testing.B) {
		benchEngine(b, q, core.Config{Strategy: core.StrategyRightDeep, BatchSize: 256}, events)
	})
	b.Run("nfa", func(b *testing.B) { benchNFA(b, q, events) })
}

// --- Figure 11: cost-model estimation over the Figure 10 sweep -------------

func BenchmarkFig11CostModel(b *testing.B) {
	q := query5()
	st := cost.UniformStats(q.Info, q.Within, 1.0/3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := optimizer.EstimateShape(q, st, false, plan.NegAuto, plan.RightDeep(3)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 12 / Table 3: Query 6 plans ------------------------------------

func fig12Events(n int) []*event.Event {
	return workload.GenStocks(workload.StockSpec{
		N: n, Seed: 13, Names: []string{"IBM", "Sun", "Oracle", "Google"},
		Weights: []float64{1, 1, 1, 1},
		FixedPrice: map[string]float64{
			"Sun":    workload.SelectivityPrice(1.0 / 50),
			"Google": workload.SelectivityPrice(1),
		}})
}

func BenchmarkFig12Throughput(b *testing.B) {
	q := query6()
	events := fig12Events(8000)
	shapes := map[string]string{
		"left-deep": "(((0 1) 2) 3)", "right-deep": "(0 (1 (2 3)))",
		"bushy": "((0 1) (2 3))", "inner": "(0 ((1 2) 3))",
	}
	for _, name := range []string{"left-deep", "right-deep", "bushy", "inner"} {
		sh, err := plan.ParseShape(shapes[name])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			benchEngine(b, q, core.Config{Strategy: core.StrategyFixed, Shape: sh, BatchSize: 256}, events)
		})
	}
	b.Run("nfa", func(b *testing.B) { benchNFA(b, q, events) })
}

func BenchmarkFig13CostModel(b *testing.B) {
	q := query6()
	st := cost.UniformStats(q.Info, q.Within, 0.25)
	sh, err := plan.ParseShape("(0 ((1 2) 3))")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := optimizer.EstimateShape(q, st, false, plan.NegAuto, sh); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Memory(b *testing.B) {
	q := query6()
	events := fig12Events(8000)
	var peak int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 256}, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range events {
			eng.Process(ev)
		}
		eng.Flush()
		peak = eng.Snapshot().PeakMemBytes
	}
	b.ReportMetric(float64(peak)/(1<<20), "peak-MB")
}

// --- Figure 14: adaptation ---------------------------------------------------

func BenchmarkFig14Adaptive(b *testing.B) {
	q := query6()
	seg1 := workload.GenStocks(workload.StockSpec{
		N: 4000, Seed: 12, Names: []string{"IBM", "Sun", "Oracle", "Google"},
		Weights: []float64{1, 100, 100, 100}})
	seg2 := fig12Events(4000)
	all := workload.Concat(seg1, seg2)
	benchEngine(b, q, core.Config{Strategy: core.StrategyOptimal, Adaptive: true,
		AdaptEvery: 2, BatchSize: 256, DriftThreshold: 0.3, ImproveThreshold: 0.05}, all)
}

// --- Figures 15/16: negation placement --------------------------------------

func BenchmarkFig15Negation(b *testing.B) {
	q := query7()
	events := workload.GenStocks(workload.StockSpec{
		N: 20000, Seed: 15, Names: []string{"IBM", "Sun", "Oracle"},
		Weights: []float64{1, 1, 20}})
	b.Run("nseq", func(b *testing.B) {
		benchEngine(b, q, core.Config{Strategy: core.StrategyLeftDeep, Negation: plan.NegPushdown, BatchSize: 256}, events)
	})
	b.Run("neg-on-top", func(b *testing.B) {
		benchEngine(b, q, core.Config{Strategy: core.StrategyLeftDeep, Negation: plan.NegTop, BatchSize: 256}, events)
	})
}

func BenchmarkFig16Negation(b *testing.B) {
	q := query7()
	events := workload.GenStocks(workload.StockSpec{
		N: 20000, Seed: 16, Names: []string{"IBM", "Sun", "Oracle"},
		Weights: []float64{1, 20, 1}})
	b.Run("nseq", func(b *testing.B) {
		benchEngine(b, q, core.Config{Strategy: core.StrategyLeftDeep, Negation: plan.NegPushdown, BatchSize: 256}, events)
	})
	b.Run("neg-on-top", func(b *testing.B) {
		benchEngine(b, q, core.Config{Strategy: core.StrategyLeftDeep, Negation: plan.NegTop, BatchSize: 256}, events)
	})
}

// --- Table 4 / Figure 17 / Table 5: web log ---------------------------------

func BenchmarkTable4WeblogGen(b *testing.B) {
	b.ReportAllocs()
	var counts workload.WeblogCounts
	for i := 0; i < b.N; i++ {
		_, counts = workload.GenWeblog(workload.WeblogSpec{N: 50_000, Seed: 17})
	}
	b.ReportMetric(float64(counts.Publications), "publications")
}

func weblogBenchEvents() []*event.Event {
	n := 100_000
	span := int64(float64(30*24*3_600_000) * float64(n) / 1_500_000)
	events, _ := workload.GenWeblog(workload.WeblogSpec{N: n, Seed: 17, SpanTicks: span})
	return events
}

func BenchmarkFig17Weblog(b *testing.B) {
	q := query8()
	events := weblogBenchEvents()
	b.Run("left-deep", func(b *testing.B) {
		benchEngine(b, q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 256}, events)
	})
	b.Run("right-deep", func(b *testing.B) {
		benchEngine(b, q, core.Config{Strategy: core.StrategyRightDeep, BatchSize: 256}, events)
	})
	b.Run("nfa", func(b *testing.B) { benchNFA(b, q, events) })
}

func BenchmarkTable5WeblogMemory(b *testing.B) {
	q := query8()
	events := weblogBenchEvents()
	var peak int64
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 256}, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range events {
			eng.Process(ev)
		}
		eng.Flush()
		peak = eng.Snapshot().PeakMemBytes
	}
	b.ReportMetric(float64(peak)/(1<<20), "peak-MB")
}

// --- §5.2.3: optimizer timing ------------------------------------------------

func BenchmarkOptimizerDP20(b *testing.B) {
	pat := "C0"
	for i := 1; i < 20; i++ {
		pat += fmt.Sprintf(";C%d", i)
	}
	q := query.MustParse("PATTERN " + pat + " WITHIN 100")
	st := cost.UniformStats(q.Info, q.Within, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := optimizer.Optimize(q, st, false); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations ----------------------------------------------------------------

func BenchmarkAblationHashEquality(b *testing.B) {
	q := query.MustParse(`
		PATTERN T1; T2; T3
		WHERE T1.name = T3.name AND T1.price > T2.price
		WITHIN 200 units`)
	names := make([]string, 64)
	weights := make([]float64, 64)
	for i := range names {
		names[i] = fmt.Sprintf("S%02d", i)
		weights[i] = 1
	}
	events := workload.GenStocks(workload.StockSpec{N: 8000, Seed: 21, Names: names, Weights: weights})
	b.Run("scan", func(b *testing.B) {
		benchEngine(b, q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 256}, events)
	})
	b.Run("hash", func(b *testing.B) {
		benchEngine(b, q, core.Config{Strategy: core.StrategyLeftDeep, UseHash: true, BatchSize: 256}, events)
	})
}

func BenchmarkAblationEAT(b *testing.B) {
	q := query4()
	events := stock3(6000, 0.25, []float64{1, 1, 1})
	b.Run("on", func(b *testing.B) {
		benchEngine(b, q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 256}, events)
	})
	b.Run("off", func(b *testing.B) {
		benchEngine(b, q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 256, DisableEAT: true}, events)
	})
}

func BenchmarkAblationBatchSize(b *testing.B) {
	q := query4()
	events := stock3(6000, 0.25, []float64{1, 1, 1})
	for _, bs := range []int{1, 64, 512} {
		bs := bs
		b.Run(fmt.Sprintf("batch%d", bs), func(b *testing.B) {
			benchEngine(b, q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: bs}, events)
		})
	}
}

// --- micro-benchmarks -----------------------------------------------------------

func BenchmarkMicroParse(b *testing.B) {
	src := `PATTERN T1;T2;T3 WHERE T1.name = T3.name AND T2.name='Google'
		AND T1.price > 1.05 * T2.price WITHIN 10 secs RETURN T1, T2, T3`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroLeafInsert measures steady-state ingest: batches assemble,
// EAT eviction recycles records, and the engine-owned event ring is large
// enough (window + batch slack) that a slot is out of every buffer before
// it is reused. In steady state this path performs zero allocations per
// event.
func BenchmarkMicroLeafInsert(b *testing.B) {
	q := query.MustParse(`PATTERN A;B WHERE A.name='IBM' AND B.name='Sun' AND A.price > B.price + 100000 WITHIN 100`)
	eng, err := core.NewEngine(q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}, nil)
	if err != nil {
		b.Fatal(err)
	}
	const ring = 4096
	events := make([]*event.Event, ring)
	for i := range events {
		name := "IBM"
		if i%2 == 1 {
			name = "Sun"
		}
		events[i] = event.NewStock(0, 0, int64(i), name, 10, 10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[i%ring]
		ev.Ts = int64(i)
		ev.Seq = 0 // engine restamps; the ring slot left every buffer long ago
		eng.Process(ev)
	}
}

// --- concurrent sharded runtime ---------------------------------------------

// runtimeBenchQueries are four per-symbol monitoring patterns, all
// partition-local over "name" (every predicate equates the symbol across
// classes), the setting the sharded runtime is built for.
func runtimeBenchQueries() []*query.Query {
	srcs := []string{
		`PATTERN Low; High
		 WHERE Low.name = High.name AND High.price > Low.price + 90
		 WITHIN 200 units`,
		`PATTERN High; Low
		 WHERE High.name = Low.name AND Low.price < High.price - 90
		 WITHIN 200 units`,
		`PATTERN T1; T2; T3
		 WHERE T1.name = T2.name AND T2.name = T3.name
		   AND T2.price > T1.price + 80 AND T3.price > T2.price
		 WITHIN 200 units`,
		`PATTERN A; B; C
		 WHERE A.name = B.name AND B.name = C.name
		   AND B.price < A.price - 80 AND C.price < B.price
		 WITHIN 200 units`,
	}
	qs := make([]*query.Query, len(srcs))
	for i, s := range srcs {
		qs[i] = query.MustParse(s)
	}
	return qs
}

func runtimeBenchEvents(n int) []*event.Event {
	names := make([]string, 16)
	weights := make([]float64, 16)
	for i := range names {
		names[i] = fmt.Sprintf("S%02d", i)
		weights[i] = 1
	}
	return workload.GenStocks(workload.StockSpec{N: n, Seed: 31, Names: names, Weights: weights})
}

// benchSequentialEngines serves the queries the pre-runtime way: one
// single-threaded engine per query, run one after another over the stream.
// events/s is stream events per wall-clock second while serving ALL
// queries (the capacity metric both sides share).
func benchSequentialEngines(b *testing.B, qs []*query.Query, cfg core.Config, events []*event.Event) {
	b.Helper()
	b.ReportAllocs()
	var matches uint64
	for i := 0; i < b.N; i++ {
		matches = 0
		for _, q := range qs {
			// Materialize matches like a serving system (and the runtime
			// benchmark) must; a nil emit would skip building them.
			eng, err := core.NewEngine(q, cfg, func(*core.Match) {})
			if err != nil {
				b.Fatal(err)
			}
			for _, ev := range events {
				eng.Process(ev)
			}
			eng.Flush()
			matches += eng.Snapshot().Matches
		}
	}
	b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(matches), "matches")
}

func benchRuntime(b *testing.B, qs []*query.Query, rcfg runtimepkg.Config, cfg core.Config, events []*event.Event) {
	b.Helper()
	b.ReportAllocs()
	var matches, rounds uint64
	for i := 0; i < b.N; i++ {
		// Construction and registration are setup, not the serving path
		// being measured.
		b.StopTimer()
		rt := runtimepkg.New(rcfg)
		for _, q := range qs {
			if _, err := rt.Register(q, cfg, func(*core.Match) {}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for _, ev := range events {
			if err := rt.Ingest(ev); err != nil {
				b.Fatal(err)
			}
		}
		if err := rt.Close(); err != nil {
			b.Fatal(err)
		}
		st := rt.Stats()
		matches, rounds = st.Engine.Matches, 0
		for _, n := range st.RoundsByShard {
			rounds += n
		}
	}
	b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(matches), "matches")
	b.ReportMetric(float64(rounds), "rounds")
}

// wideBatches is the ingest configuration of the multi-query and scaling
// benchmarks: few, large shard batches, so engine work dominates.
func wideBatches(shards int) runtimepkg.Config {
	return runtimepkg.Config{Shards: shards, PartitionBy: "name", BatchSize: 4096}
}

// BenchmarkRuntimeMultiQuery is the headline comparison: four queries
// served by four sequential single-engine runs versus the sharded runtime
// with four workers. Sharding wins even on one core — each shard engine
// buffers only its partitions' events, so per-round assembly scans touch
// a fraction of the window — and scales near-linearly with GOMAXPROCS on
// top of that.
func BenchmarkRuntimeMultiQuery(b *testing.B) {
	qs := runtimeBenchQueries()
	events := runtimeBenchEvents(20000)
	cfg := core.Config{Strategy: core.StrategyOptimal, BatchSize: 256}
	b.Run("sequential-4x1", func(b *testing.B) {
		benchSequentialEngines(b, qs, cfg, events)
	})
	b.Run("runtime-4x4", func(b *testing.B) {
		benchRuntime(b, qs, wideBatches(4), cfg, events)
	})
}

// BenchmarkRuntimeScaling sweeps the shard count; with GOMAXPROCS >= the
// shard count, events/s should grow near-linearly until the core count or
// the partition count caps it.
func BenchmarkRuntimeScaling(b *testing.B) {
	qs := runtimeBenchQueries()
	events := runtimeBenchEvents(20000)
	cfg := core.Config{Strategy: core.StrategyOptimal, BatchSize: 256}
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchRuntime(b, qs, wideBatches(shards), cfg, events)
		})
	}
}

// BenchmarkShardIdleQueries is the scaling probe for O(touched) batch
// rounds: n standing alerts in the alerts-1k mix (half per-symbol dip
// alerts, half threshold alerts differing only in constants) over a stream
// that carries 16 symbols and prices up to 100, so the same 32 alerts are
// hot at every n and the rest are registered but idle. With the runtime's
// default 256-event batches, events/s and the rounds metric should not move
// with n: a shard worker visits the engines that got events or still owe a
// match, not every registered one.
func BenchmarkShardIdleQueries(b *testing.B) {
	// Long enough that Close's flush of every registered engine, which is
	// inside the timer and does grow with n, stays a small share.
	events := runtimeBenchEvents(200000)
	cfg := core.Config{Strategy: core.StrategyOptimal, UseHash: true, BatchSize: 256}
	for _, n := range []int{256, 1024, 4096} {
		qs := make([]*query.Query, 0, n)
		for i := 0; i < n/2; i++ {
			// S00..S15 are in the stream; S16 and up never arrive.
			qs = append(qs, query.MustParse(fmt.Sprintf(`PATTERN A; B
				WHERE A.name = 'S%02d' AND B.name = 'S%02d' AND B.price < A.price - 90
				WITHIN 200 units`, i, i)))
			// The first 16 threshold pairs sit inside the price range, the
			// rest outside it on both classes.
			hi, lo := 99.0+float64(i)*0.05, 1.0
			if i >= 16 {
				hi, lo = hi+1000, lo-1000
			}
			qs = append(qs, query.MustParse(fmt.Sprintf(`PATTERN A; B
				WHERE A.name = B.name AND A.price > %.2f AND B.price <= %.2f
				WITHIN 200 units`, hi, lo)))
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			benchRuntime(b, qs, runtimepkg.Config{Shards: 2}, cfg, events)
		})
	}
}

package runtime

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/ref"
)

// Differential tests for the predicate-indexed router: with the SAME
// runtime configuration, router-based delivery must produce byte-identical
// match sequences (content and delivery order) to the naive
// deliver-to-all path, across overlapping parameterized query mixes,
// shard counts, and live registration churn.

// fanoutQuerySrcs builds n overlapping parameterized queries over `symbols`
// stock symbols, cycling through templates that exercise every router
// path: pure equality dispatch, equality + shared residual, residual-only
// scans, an unconstrained (always-admitted) class, and negation.
func fanoutQuerySrcs(n, symbols int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		sym := fmt.Sprintf("S%02d", i%symbols)
		d := float64(60 + 10*((i/symbols)%4))
		var src string
		switch i % 7 {
		case 0: // equality dispatch only
			src = fmt.Sprintf(`PATTERN A; B
				WHERE A.name = '%s' AND B.name = '%s' AND B.price < A.price - %g
				WITHIN 40 units RETURN A, B`, sym, sym, d)
		case 1: // equality + residual shared across all symbol variants
			src = fmt.Sprintf(`PATTERN A; B
				WHERE A.name = '%s' AND A.price > 50 AND B.name = '%s' AND B.price < 50
				WITHIN 40 units RETURN A, B`, sym, sym)
		case 2: // residual-only (no equality atoms at all)
			src = fmt.Sprintf(`PATTERN A; B
				WHERE A.price > %g AND B.price < %g
				WITHIN 8 units RETURN A, B`, d+30, 100-d)
		case 3: // unconstrained class: degrades to full delivery
			src = fmt.Sprintf(`PATTERN A; B
				WHERE A.name = '%s' AND A.price > %g
				WITHIN 4 units RETURN A, B`, sym, d)
		case 4: // negation between dispatched classes
			src = fmt.Sprintf(`PATTERN A; !B; C
				WHERE A.name = '%s' AND B.name = '%s' AND C.name = '%s'
				  AND B.price > %g AND C.price > A.price
				WITHIN 30 units RETURN A, C`, sym, sym, sym, d)
		case 5: // trailing negation: confirmation is time-driven (NSeqRight)
			src = fmt.Sprintf(`PATTERN A; !B
				WHERE A.name = '%s' AND A.price > %g AND B.name = '%s' AND B.price > A.price
				WITHIN 20 units RETURN A`, sym, d, sym)
		default: // trailing Kleene closure: also confirmed by window expiry
			src = fmt.Sprintf(`PATTERN A; B+
				WHERE A.name = '%s' AND A.price < %g AND B.name = '%s' AND B.price > A.price
				WITHIN 15 units RETURN A, B`, sym, 100-d, sym)
		}
		out = append(out, src)
	}
	return out
}

// fanoutRun drives queries over events on one runtime configuration and
// returns the global delivery transcript: one line per delivered match, in
// delivery order, tagged with the query index.
func fanoutRun(t testing.TB, srcs []string, cfg Config, ecfg core.Config, events []*event.Event) []string {
	t.Helper()
	cfg.test.poison = true
	rt := New(cfg)
	var transcript []string
	for i, src := range srcs {
		i := i
		q := query.MustParse(src)
		if _, err := rt.Register(q, ecfg, func(m *core.Match) {
			transcript = append(transcript, fmt.Sprintf("q%03d %s", i, canon(m)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range events {
		cp := *ev
		if err := rt.Ingest(&cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waits for the merger to drain, so the transcript is complete.
	return transcript
}

func diffTranscripts(t *testing.T, naive, routed []string) {
	t.Helper()
	if len(naive) != len(routed) {
		t.Errorf("match counts differ: naive=%d routed=%d", len(naive), len(routed))
	}
	n := len(naive)
	if len(routed) < n {
		n = len(routed)
	}
	for i := 0; i < n; i++ {
		if naive[i] != routed[i] {
			t.Fatalf("delivery %d differs:\n  naive:  %s\n  routed: %s", i, naive[i], routed[i])
		}
	}
}

// TestRouterDifferentialManyQueries: 120 overlapping parameterized queries
// on randomized workloads; routed delivery must be byte-identical to the
// naive path, in content and order, for several shard counts.
func TestRouterDifferentialManyQueries(t *testing.T) {
	srcs := fanoutQuerySrcs(120, 16)
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}
	for _, seed := range []int64{3, 19} {
		events := stockStream(5000, 16, seed)
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				base := Config{Shards: shards, BatchSize: 128}
				naiveCfg, routedCfg := base, base
				naiveCfg.test.naiveFanout = true
				naive := fanoutRun(t, srcs, naiveCfg, ecfg, events)
				routed := fanoutRun(t, srcs, routedCfg, ecfg, events)
				if len(naive) == 0 {
					t.Fatal("workload produced no matches; test is vacuous")
				}
				diffTranscripts(t, naive, routed)
			})
		}
	}
}

// TestRouterDifferentialHashAndAdaptive repeats the comparison with hash
// joins and plan adaptation enabled: adaptation may pick different plans
// per engine, but plan switching is duplicate-free, so transcripts must
// still agree.
func TestRouterDifferentialHashAndAdaptive(t *testing.T) {
	srcs := fanoutQuerySrcs(60, 8)
	ecfg := core.Config{Strategy: core.StrategyOptimal, UseHash: true,
		Adaptive: true, AdaptEvery: 4, BatchSize: 32}
	events := stockStream(4000, 8, 23)
	base := Config{Shards: 2, BatchSize: 64}
	naiveCfg, routedCfg := base, base
	naiveCfg.test.naiveFanout = true
	naive := fanoutRun(t, srcs, naiveCfg, ecfg, events)
	routed := fanoutRun(t, srcs, routedCfg, ecfg, events)
	if len(naive) == 0 {
		t.Fatal("workload produced no matches; test is vacuous")
	}
	diffTranscripts(t, naive, routed)
}

// oracleKey renders a match the way ref.Find keys one: per class, in class
// order, the constituent events' sequence numbers, classes joined by '|',
// negated classes empty. Every fanoutQuerySrcs template RETURNs exactly its
// non-negated classes in class order, so Fields line up with them.
func oracleKey(q *query.Query, m *core.Match) string {
	var sb strings.Builder
	f := 0
	for i, ci := range q.Info.Classes {
		if i > 0 {
			sb.WriteByte('|')
		}
		if ci.Negated {
			continue
		}
		for j, e := range m.Fields[f].Events {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatUint(e.Seq, 10))
		}
		f++
	}
	return sb.String()
}

// TestRouterDifferentialOracle backs the deliver-to-all reference with the
// semantics: on one shard, the partition-local templates (every class
// filtered to one symbol: cases 0, 1, 4, 5, 6) must produce exactly the
// brute-force oracle's match set, routed and deliver-to-all alike. The
// other suites only prove the two paths agree with each other.
func TestRouterDifferentialOracle(t *testing.T) {
	var qs []*query.Query
	for i, src := range fanoutQuerySrcs(56, 8) {
		if c := i % 7; c != 2 && c != 3 {
			qs = append(qs, query.MustParse(src))
		}
	}
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}
	for _, naive := range []bool{true, false} {
		t.Run(fmt.Sprintf("naive=%v", naive), func(t *testing.T) {
			rt := New(Config{Shards: 1, BatchSize: 128, test: testHooks{naiveFanout: naive}})
			got := make([][]string, len(qs))
			for i, q := range qs {
				if _, err := rt.Register(q, ecfg, func(m *core.Match) {
					got[i] = append(got[i], oracleKey(q, m))
				}); err != nil {
					t.Fatal(err)
				}
			}
			// Ingest stamps Seq on the copies; the oracle must see the same.
			var events []*event.Event
			for _, ev := range stockStream(2000, 8, 29) {
				cp := *ev
				if err := rt.Ingest(&cp); err != nil {
					t.Fatal(err)
				}
				events = append(events, &cp)
			}
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			// qs keeps the template order, five per cycle of seven.
			cases := [5]int{0, 1, 4, 5, 6}
			var found [5]int // oracle matches per template
			for i, q := range qs {
				want, err := ref.Find(q, events)
				if err != nil {
					t.Fatal(err)
				}
				slices.Sort(got[i])
				if !slices.Equal(got[i], want) {
					t.Errorf("query %d (%s): runtime %d matches, oracle %d", i, q, len(got[i]), len(want))
				}
				found[i%5] += len(want)
			}
			for c, n := range found {
				if n == 0 {
					t.Errorf("template case %d: oracle found no match; compared empty with empty", cases[c])
				}
			}
		})
	}
}

// churnRun is fanoutRun with live registration churn at exact stream
// positions: a third of the queries register only after a third of the
// stream, and a quarter of the early queries unregister at two thirds.
// Both configurations perform the identical op sequence at the identical
// ingest positions, so their transcripts must agree byte for byte — the
// router index must neither drop nor duplicate deliveries around
// incremental add/remove.
func churnRun(t testing.TB, srcs []string, cfg Config, ecfg core.Config, events []*event.Event) []string {
	t.Helper()
	cfg.test.poison = true
	rt := New(cfg)
	var transcript []string
	register := func(i int) QueryID {
		q := query.MustParse(srcs[i])
		id, err := rt.Register(q, ecfg, func(m *core.Match) {
			transcript = append(transcript, fmt.Sprintf("q%03d %s", i, canon(m)))
		})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	late := len(srcs) / 3
	var earlyIDs []QueryID
	for i := 0; i < len(srcs)-late; i++ {
		earlyIDs = append(earlyIDs, register(i))
	}
	third := len(events) / 3
	ingest := func(evs []*event.Event) {
		for _, ev := range evs {
			cp := *ev
			if err := rt.Ingest(&cp); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(events[:third])
	for i := len(srcs) - late; i < len(srcs); i++ {
		register(i)
	}
	ingest(events[third : 2*third])
	for i := 0; i < len(earlyIDs); i += 4 {
		if err := rt.Unregister(earlyIDs[i]); err != nil {
			t.Fatal(err)
		}
	}
	ingest(events[2*third:])
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	return transcript
}

// TestRouterRegisterUnregisterMidStream extends the plan-switch
// duplicate-free guarantees to the router layer: index updates at exact
// stream positions must not drop or duplicate deliveries.
func TestRouterRegisterUnregisterMidStream(t *testing.T) {
	srcs := fanoutQuerySrcs(90, 12)
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}
	events := stockStream(6000, 12, 41)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := Config{Shards: shards, BatchSize: 100}
			naiveCfg, routedCfg := base, base
			naiveCfg.test.naiveFanout = true
			naive := churnRun(t, srcs, naiveCfg, ecfg, events)
			routed := churnRun(t, srcs, routedCfg, ecfg, events)
			if len(naive) == 0 {
				t.Fatal("workload produced no matches; test is vacuous")
			}
			diffTranscripts(t, naive, routed)
		})
	}
}

// TestRouterDeliveryReduction sanity-checks the point of the exercise: on
// a parameterized per-symbol workload the router must deliver far fewer
// (engine, event) pairs than naive fan-out while producing identical
// results (covered above). With 16 symbols and per-symbol queries, the
// expected reduction is ~16x; assert a conservative 4x.
func TestRouterDeliveryReduction(t *testing.T) {
	srcs := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		sym := fmt.Sprintf("S%02d", i%16)
		srcs = append(srcs, fmt.Sprintf(`PATTERN A; B
			WHERE A.name = '%s' AND B.name = '%s' AND B.price < A.price - 90
			WITHIN 40 units`, sym, sym))
	}
	events := stockStream(3000, 16, 9)
	rt := New(Config{Shards: 2, BatchSize: 128})
	for _, src := range srcs {
		if _, err := rt.Register(query.MustParse(src), core.Config{BatchSize: 64}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range events {
		cp := *ev
		if err := rt.Ingest(&cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	naiveDeliveries := st.EventsIngested * 64
	if st.EngineDeliveries == 0 {
		t.Fatal("no deliveries counted")
	}
	if st.EngineDeliveries*4 > naiveDeliveries {
		t.Errorf("router delivered %d of %d naive pairs (%.1fx reduction), want >= 4x",
			st.EngineDeliveries, naiveDeliveries, float64(naiveDeliveries)/float64(st.EngineDeliveries))
	}
}

// TestRouterStarvedReordererDoesNotStallWatermark: a routed engine with a
// reordering stage (MaxDisorder) that stops receiving admitted events must
// not pin the merge watermark — its reorder clock has to follow the shard
// stream time so pending events release and MatchHorizon advances. With
// the bug this guards against, the co-registered query's matches would
// only be delivered at Close.
func TestRouterStarvedReordererDoesNotStallWatermark(t *testing.T) {
	rt := New(Config{Shards: 1, BatchSize: 16})
	rare := query.MustParse(`PATTERN A; B
		WHERE A.name = 'RARE' AND B.name = 'RARE' AND B.price > A.price
		WITHIN 10 units RETURN A, B`)
	if _, err := rt.Register(rare, core.Config{BatchSize: 16, MaxDisorder: 50}, nil); err != nil {
		t.Fatal(err)
	}
	busy := query.MustParse(`PATTERN A; B
		WHERE A.name = 'IBM' AND B.name = 'IBM' AND B.price > A.price
		WITHIN 50 units RETURN A, B`)
	var delivered atomic.Uint64
	if _, err := rt.Register(busy, core.Config{BatchSize: 16}, func(*core.Match) {
		delivered.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	// One RARE event parks in the rare engine's reorder heap; only IBM
	// events (which the router never delivers to the rare engine) follow.
	if err := rt.Ingest(event.NewStock(0, 1, 0, "RARE", 10, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := rt.Ingest(event.NewStock(0, int64(2+i), int64(i), "IBM", float64(i%100), 1)); err != nil {
			t.Fatal(err)
		}
	}
	// The merger must deliver the IBM matches without waiting for Close.
	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() == 0 {
		t.Error("no matches delivered while the starved reorder engine is live; watermark stalled")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if delivered.Load() == 0 {
		t.Fatal("workload produced no matches at all; test is vacuous")
	}
}

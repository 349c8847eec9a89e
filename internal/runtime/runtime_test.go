package runtime

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/workload"
)

// riseQuery is partition-local over "name": every predicate equates the
// symbol across classes, so sharded evaluation must equal a single global
// engine for any shard count.
const riseQuery = `
	PATTERN T1; T2; T3
	WHERE T1.name = T2.name AND T2.name = T3.name
	  AND T1.price < T2.price AND T2.price < T3.price
	WITHIN 50 units
	RETURN T1, T2, T3`

func names(n int) ([]string, []float64) {
	names := make([]string, n)
	weights := make([]float64, n)
	for i := range names {
		names[i] = fmt.Sprintf("S%02d", i)
		weights[i] = 1
	}
	return names, weights
}

func stockStream(n, symbols int, seed int64) []*event.Event {
	nm, w := names(symbols)
	return workload.GenStocks(workload.StockSpec{N: n, Seed: seed, Names: nm, Weights: w})
}

// canon renders a match into a canonical comparison key.
func canon(m *core.Match) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%d..%d]", m.Start, m.End)
	for _, f := range m.Fields {
		fmt.Fprintf(&b, " %s=", f.Name)
		for _, e := range f.Events {
			fmt.Fprintf(&b, "@%d#%s", e.Ts, e.Get("name").S)
		}
		if len(f.Events) == 0 {
			b.WriteString(f.Value.String())
		}
	}
	return b.String()
}

// singleEngine runs q over events with one global engine and returns the
// canonical match multiset.
func singleEngine(t testing.TB, q *query.Query, cfg core.Config, events []*event.Event) map[string]int {
	t.Helper()
	got := map[string]int{}
	eng, err := core.NewEngine(q, cfg, func(m *core.Match) { got[canon(m)]++ })
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		cp := *ev
		eng.Process(&cp)
	}
	eng.Flush()
	return got
}

// runtimeRun runs q through a Runtime and returns the canonical match
// multiset plus the delivered end-times in delivery order.
func runtimeRun(t testing.TB, q *query.Query, cfg Config, ecfg core.Config, events []*event.Event) (map[string]int, []int64) {
	t.Helper()
	cfg.test.poison = true
	rt := New(cfg)
	got := map[string]int{}
	var ends []int64
	if _, err := rt.Register(q, ecfg, func(m *core.Match) {
		got[canon(m)]++
		ends = append(ends, m.End)
	}); err != nil {
		t.Fatal(err)
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
	return got, ends
}

func diffMultisets(t *testing.T, want, got map[string]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("match %q: single=%d sharded=%d", k, n, got[k])
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("extra sharded match %q (x%d)", k, n)
		}
	}
}

// TestShardedEqualsSingleEngine: for a partition-local query the merged
// sharded output must equal the single-engine output, for several shard
// counts, and must be delivered in non-decreasing end-time order.
func TestShardedEqualsSingleEngine(t *testing.T) {
	q := query.MustParse(riseQuery)
	events := stockStream(6000, 8, 42)
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, UseHash: true, BatchSize: 64}
	want := singleEngine(t, q, ecfg, events)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; test is vacuous")
	}
	for _, shards := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got, ends := runtimeRun(t, q, Config{Shards: shards, BatchSize: 100}, ecfg, events)
			diffMultisets(t, want, got)
			for i := 1; i < len(ends); i++ {
				if ends[i] < ends[i-1] {
					t.Fatalf("delivery out of end-time order at %d: %d after %d", i, ends[i], ends[i-1])
				}
			}
		})
	}
}

// TestPartitionDeterministic: the event → shard assignment is a pure
// function of the partition key, the same in every runtime, durable or
// not. Queries that are not partition-local (templates 2 and 3 join across
// symbols, so their output depends on which symbols share a shard) must
// therefore produce byte-identical transcripts on two independently
// constructed runtimes.
func TestPartitionDeterministic(t *testing.T) {
	var srcs []string
	for i, src := range fanoutQuerySrcs(42, 16) {
		if i%7 == 2 || i%7 == 3 {
			srcs = append(srcs, src)
		}
	}
	events := stockStream(3000, 16, 5)
	cfg := Config{Shards: 3, BatchSize: 64}
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 32}
	first := fanoutRun(t, srcs, cfg, ecfg, events)
	second := fanoutRun(t, srcs, cfg, ecfg, events)
	if len(first) == 0 {
		t.Fatal("workload produced no matches; test is vacuous")
	}
	diffTranscripts(t, first, second)

	mem := New(cfg)
	defer mem.Close()
	dcfg := cfg
	dcfg.Durability = &DurConfig{Dir: t.TempDir()}
	dur, _, err := NewDurable(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	used := map[int]bool{}
	for _, ev := range events[:200] {
		m, d := mem.shard(ev), dur.shard(ev)
		if m != d {
			t.Fatalf("key %q: New shards it to %d, NewDurable to %d", ev.Get("name").S, m, d)
		}
		used[m] = true
	}
	if len(used) < 2 {
		t.Fatalf("every key landed on one shard (%v); test is vacuous", used)
	}
}

// TestPartitionSkew: one hot symbol receiving ~90% of the stream must not
// change results or deadlock the backpressure path. A selective two-class
// pattern keeps the hot partition's match count (and the test) small while
// its event volume stays maximally skewed.
func TestPartitionSkew(t *testing.T) {
	nm, w := names(8)
	w[3] = 9 * 7 // S03 gets ~90%
	events := workload.GenStocks(workload.StockSpec{N: 8000, Seed: 7, Names: nm, Weights: w})
	q := query.MustParse(`
		PATTERN A; B
		WHERE A.name = B.name AND B.price > A.price + 90
		WITHIN 50 units
		RETURN A, B`)
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, UseHash: true, BatchSize: 64}
	want := singleEngine(t, q, ecfg, events)
	got, _ := runtimeRun(t, q, Config{Shards: 4, BatchSize: 64, QueueLen: 2}, ecfg, events)
	diffMultisets(t, want, got)
}

// TestMultiQueryOrdering: several queries on one runtime; the merged
// delivery across all queries must be globally end-time ordered and each
// query must see exactly its own single-engine results.
func TestMultiQueryOrdering(t *testing.T) {
	queries := []*query.Query{
		query.MustParse(riseQuery),
		query.MustParse(`
			PATTERN A; B
			WHERE A.name = B.name AND B.price > A.price
			WITHIN 20 units
			RETURN A, B`),
	}
	events := stockStream(4000, 6, 11)
	ecfg := core.Config{UseHash: true, BatchSize: 64}

	rt := New(Config{Shards: 3, BatchSize: 128})
	type rec struct {
		got  map[string]int
		prev int64
	}
	var mu sync.Mutex // callbacks are single-goroutine, but be explicit about the global order check
	var globalEnds []int64
	recs := make([]*rec, len(queries))
	for i, q := range queries {
		r := &rec{got: map[string]int{}}
		recs[i] = r
		if _, err := rt.Register(q, ecfg, func(m *core.Match) {
			mu.Lock()
			r.got[canon(m)]++
			globalEnds = append(globalEnds, m.End)
			mu.Unlock()
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
	for i := 1; i < len(globalEnds); i++ {
		if globalEnds[i] < globalEnds[i-1] {
			t.Fatalf("global delivery out of order at %d: %d after %d", i, globalEnds[i], globalEnds[i-1])
		}
	}
	for i, q := range queries {
		want := singleEngine(t, q, ecfg, events)
		diffMultisets(t, want, recs[i].got)
	}
}

// TestConcurrentRegisterUnregisterIngest exercises the runtime under -race:
// one goroutine ingests, one churns query registrations, one polls Stats.
func TestConcurrentRegisterUnregisterIngest(t *testing.T) {
	rt := New(Config{Shards: 4, BatchSize: 32, QueueLen: 2})
	events := stockStream(20000, 8, 3)
	q := query.MustParse(riseQuery)
	ecfg := core.Config{UseHash: true, BatchSize: 32}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // registration churn
		defer wg.Done()
		var ids []QueryID
		for i := 0; i < 40; i++ {
			id, err := rt.Register(q, ecfg, func(*core.Match) {})
			if err != nil {
				t.Error(err)
				return
			}
			ids = append(ids, id)
			if len(ids) > 3 {
				if err := rt.Unregister(ids[0]); err != nil {
					t.Error(err)
					return
				}
				ids = ids[1:]
			}
		}
	}()
	go func() { // stats poller
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = rt.Stats()
			}
		}
	}()
	for _, ev := range events {
		cp := *ev
		if err := rt.Ingest(&cp); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.EventsIngested != uint64(len(events)) {
		t.Errorf("EventsIngested = %d, want %d", st.EventsIngested, len(events))
	}
}

// TestLifecycleErrors covers Close idempotence and the error surface.
func TestLifecycleErrors(t *testing.T) {
	rt := New(Config{Shards: 2})
	q := query.MustParse(riseQuery)
	id, err := rt.Register(q, core.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Unregister(id + 99); !errors.Is(err, ErrUnknownQuery) {
		t.Errorf("Unregister(bogus) = %v", err)
	}
	if err := rt.Ingest(event.NewStock(1, 100, 1, "IBM", 10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Ingest(event.NewStock(2, 50, 2, "IBM", 10, 1)); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("out-of-order ingest = %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	if err := rt.Ingest(event.NewStock(3, 200, 3, "IBM", 10, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Ingest after Close = %v", err)
	}
	if _, err := rt.Register(q, core.Config{}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Register after Close = %v", err)
	}
	if err := rt.Unregister(id); !errors.Is(err, ErrClosed) {
		t.Errorf("Unregister after Close = %v", err)
	}
}

// TestRegisterErrorPropagates: engine construction failures surface from
// Register before any worker sees the query.
func TestRegisterErrorPropagates(t *testing.T) {
	rt := New(Config{Shards: 2})
	defer rt.Close()
	q := query.MustParse(riseQuery)
	bad := core.Config{Strategy: core.StrategyFixed} // Shape missing
	if _, err := rt.Register(q, bad, nil); err == nil {
		t.Fatal("Register with bad config succeeded")
	}
	st := rt.Stats()
	if st.LiveQueries != 0 {
		t.Errorf("LiveQueries = %d after failed register", st.LiveQueries)
	}
}

// TestUnregisterStopsMatches: after Unregister the query receives no
// further matches even as the stream continues.
func TestUnregisterStopsMatches(t *testing.T) {
	rt := New(Config{Shards: 2, BatchSize: 16})
	q := query.MustParse(riseQuery)
	var n int
	id, err := rt.Register(q, core.Config{UseHash: true, BatchSize: 16}, func(*core.Match) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	events := stockStream(4000, 4, 5)
	half := len(events) / 2
	for _, ev := range events[:half] {
		cp := *ev
		if err := rt.Ingest(&cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Unregister(id); err != nil {
		t.Fatal(err)
	}
	// Matches already reported by workers may still drain; remember the
	// count only after Close, then verify a full-stream run finds more.
	for _, ev := range events[half:] {
		cp := *ev
		if err := rt.Ingest(&cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	full := singleEngine(t, q, core.Config{UseHash: true, BatchSize: 16}, events)
	total := 0
	for _, c := range full {
		total += c
	}
	if n >= total {
		t.Errorf("unregistered query saw %d matches, full run has %d", n, total)
	}
	if n == 0 {
		t.Error("no matches before unregister; test is vacuous")
	}
}

package runtime

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
)

var updateGolden = flag.Bool("update", false, "rewrite EXPLAIN golden files")

// goldenNames labels the seven router differential templates
// (fanoutQuerySrcs cases 0..6) for the golden files.
var goldenNames = []string{
	"eq-dispatch",
	"eq-residual",
	"residual-only",
	"unconstrained",
	"negation",
	"trailing-negation",
	"trailing-kleene",
}

// TestExplainGolden pins the zstream-explain/v1 serialization for the seven
// router differential templates. With one shard, a fixed strategy and no
// ingested events, every field of the document is a pure function of the
// query text and configuration, so the bytes must be stable across runs —
// schema changes must bump explain.Version and regenerate with -update.
func TestExplainGolden(t *testing.T) {
	srcs := fanoutQuerySrcs(len(goldenNames), 1)
	for i, src := range srcs {
		t.Run(goldenNames[i], func(t *testing.T) {
			rt := New(Config{Shards: 1, BatchSize: 16})
			defer rt.Close()
			id, err := rt.Register(query.MustParse(src),
				core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}, nil)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := rt.Explain(id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := doc.JSON()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')

			// Byte-stability within one process: a second snapshot of an
			// untouched query must serialize identically.
			doc2, err := rt.Explain(id)
			if err != nil {
				t.Fatal(err)
			}
			again, err := doc2.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, append(again, '\n')) {
				t.Fatal("consecutive EXPLAIN snapshots of an idle query differ")
			}

			path := filepath.Join("testdata", "explain", goldenNames[i]+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to regenerate): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("EXPLAIN drifted from golden %s (regenerate with -update if intended)\n got: %s\nwant: %s",
					path, got, want)
			}
		})
	}
}

// TestExplainLiveCounters ingests a stream and checks that the EXPLAIN
// counters move: leaf arrivals, router admissions, both selectivity views,
// and the metrics totals must reflect the processed events.
func TestExplainLiveCounters(t *testing.T) {
	rt := New(Config{Shards: 2, BatchSize: 32})
	defer rt.Close()
	q := query.MustParse(`PATTERN A; B
		WHERE A.name = 'S00' AND A.price > 50 AND B.name = 'S00' AND B.price < 50
		WITHIN 40 units RETURN A, B`)
	id, err := rt.Register(q, core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	events := stockStream(2000, 4, 11)
	for _, ev := range events {
		cp := *ev
		if err := rt.Ingest(&cp); err != nil {
			t.Fatal(err)
		}
	}
	doc, err := rt.Explain(id)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != "zstream-explain/v1" {
		t.Fatalf("version = %q", doc.Version)
	}
	if doc.Router == nil || doc.Router.Mode != "indexed" {
		t.Fatalf("router section = %+v", doc.Router)
	}
	if doc.Router.Events != 2000 {
		t.Errorf("router events = %d, want 2000 (all shards)", doc.Router.Events)
	}
	for _, rc := range doc.Router.Classes {
		if rc.Admitted == 0 {
			t.Errorf("class %s: no admissions counted", rc.Class)
		}
		if rc.AdmissionRate <= 0 || rc.AdmissionRate >= 1 {
			t.Errorf("class %s: admission rate %v not in (0,1) — eq dispatch on 1 of 4 symbols plus a residual", rc.Class, rc.AdmissionRate)
		}
		if rc.LeafSeen == 0 {
			t.Errorf("class %s: leaf saw nothing", rc.Class)
		}
		if rc.LeafSeen < rc.LeafPassed {
			t.Errorf("class %s: passed %d > seen %d", rc.Class, rc.LeafPassed, rc.LeafSeen)
		}
		// The conditioned pass rate must not be below the unconditioned
		// admission rate: the router only withholds events the leaf filter
		// would have rejected.
		if rc.PassRate < rc.AdmissionRate {
			t.Errorf("class %s: pass rate %v < admission rate %v", rc.Class, rc.PassRate, rc.AdmissionRate)
		}
	}
	if len(doc.Plans) == 0 {
		t.Fatal("no plan variants")
	}
	var shards []int
	for _, v := range doc.Plans {
		shards = append(shards, v.Shards...)
		if v.Tree == nil {
			t.Fatal("variant without tree")
		}
		if v.Tree.In == 0 && v.Tree.Out == 0 && len(v.Tree.Children) == 0 {
			t.Error("root operator counted nothing")
		}
	}
	if len(shards) != 2 {
		t.Errorf("plan variants cover shards %v, want both", shards)
	}

	m := rt.Metrics()
	if len(m.Queries) != 1 || m.Queries[0].ID != id {
		t.Fatalf("metrics queries = %+v", m.Queries)
	}
	if m.Queries[0].Operators.In == 0 {
		t.Error("metrics operator totals empty")
	}
	if m.Router.Events != 2000 {
		t.Errorf("metrics router events = %d", m.Router.Events)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"zstream_events_ingested_total 2000",
		fmt.Sprintf(`zstream_query_records_in_total{query="%d",group="%d"}`, id, m.Queries[0].GroupID),
		"# TYPE zstream_router_events_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// TestMetricsConsistentUnderIngest: with a concurrent ingester, every
// Metrics snapshot must be consistent — the aggregate Stats cover at least
// every event the shard routers had classified when the snapshot was
// taken.
func TestMetricsConsistentUnderIngest(t *testing.T) {
	rt := New(Config{Shards: 2, BatchSize: 8})
	defer rt.Close()
	q := query.MustParse(`PATTERN A; B WHERE A.name = B.name AND B.price > A.price WITHIN 20 units RETURN A, B`)
	if _, err := rt.Register(q, core.Config{}, nil); err != nil {
		t.Fatal(err)
	}
	events := stockStream(50000, 8, 5)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, ev := range events {
			select {
			case <-stop:
				return
			default:
			}
			cp := *ev
			if err := rt.Ingest(&cp); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		m := rt.Metrics()
		if m.Router.Events > m.Stats.EventsIngested {
			t.Fatalf("snapshot %d: Router.Events %d > Stats.EventsIngested %d",
				i, m.Router.Events, m.Stats.EventsIngested)
		}
	}
	close(stop)
	<-done
}

// TestExplainAdaptiveReplanObservable flips the stream's rate profile so an
// adaptive engine re-plans, and checks that the switch is observable across
// consecutive EXPLAIN snapshots: the switch counter increments, the plan
// fingerprint changes, and last_switch records the transition.
func TestExplainAdaptiveReplanObservable(t *testing.T) {
	rt := New(Config{Shards: 1, BatchSize: 16, PartitionBy: "none"})
	defer rt.Close()
	q := query.MustParse(`PATTERN A;B;C
		WHERE A.name='A' AND B.name='B' AND C.name='C' WITHIN 100`)
	id, err := rt.Register(q, core.Config{
		Strategy: core.StrategyOptimal, Adaptive: true, AdaptEvery: 4, BatchSize: 16,
		DriftThreshold: 0.3, ImproveThreshold: 0.05,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ts := int64(0)
	feed := func(name string) {
		ts++
		if err := rt.Ingest(event.NewStock(0, ts, 0, name, float64(rng.Intn(100)), 1)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := rt.Explain(id) // seeded from uniform statistics
	if err != nil {
		t.Fatal(err)
	}
	// A heavily skewed stream (A rare) makes the collected statistics drift
	// far from the uniform seed, so the engine re-plans.
	for i := 0; i < 3000; i++ {
		switch {
		case i%100 == 0:
			feed("A")
		case i%2 == 0:
			feed("B")
		default:
			feed("C")
		}
	}
	after, err := rt.Explain(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Plans) != 1 || len(after.Plans) != 1 {
		t.Fatalf("expected 1 variant on 1 shard, got %d then %d", len(before.Plans), len(after.Plans))
	}
	b, a := before.Plans[0], after.Plans[0]
	if a.Switches <= b.Switches {
		t.Fatalf("plan switches did not increase: %d -> %d", b.Switches, a.Switches)
	}
	if a.Fingerprint == b.Fingerprint {
		t.Errorf("fingerprint unchanged across re-plan: %s", a.Fingerprint)
	}
	if a.LastSwitch == nil {
		t.Fatal("last_switch not recorded")
	}
	if a.LastSwitch.To != a.Fingerprint {
		t.Errorf("last_switch.to = %s, current fingerprint = %s", a.LastSwitch.To, a.Fingerprint)
	}
	if a.LastSwitch.From == a.LastSwitch.To {
		t.Error("last_switch records no structural change")
	}
}

// TestExplainSharedPrefix registers a prefix family and checks the sharing
// section: the consumer's document must name the producer, carry its
// operator tree, and skip the per-node cost breakdown (the prefix cost
// belongs to the producer).
func TestExplainSharedPrefix(t *testing.T) {
	rt := New(Config{Shards: 2, BatchSize: 32})
	defer rt.Close()
	srcs := prefixQuerySrcs(2, 1) // cases 0 and 1: same A;B prefix family
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}
	soloID, err := rt.Register(query.MustParse(srcs[0]), ecfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	consumerID, err := rt.Register(query.MustParse(srcs[1]), ecfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	events := stockStream(1500, 2, 13)
	for _, ev := range events {
		cp := *ev
		if err := rt.Ingest(&cp); err != nil {
			t.Fatal(err)
		}
	}
	solo, err := rt.Explain(soloID)
	if err != nil {
		t.Fatal(err)
	}
	if solo.Sharing == nil || solo.Sharing.ProducerID != 0 {
		t.Fatalf("solo sharing = %+v, want no producer", solo.Sharing)
	}
	cons, err := rt.Explain(consumerID)
	if err != nil {
		t.Fatal(err)
	}
	sh := cons.Sharing
	if sh == nil || sh.PrefixLen != 2 || sh.ProducerID >= 0 {
		t.Fatalf("consumer sharing = %+v, want prefix_len=2 and a producer", sh)
	}
	if sh.ProducerReaders < 1 {
		t.Errorf("producer readers = %d", sh.ProducerReaders)
	}
	if sh.ProducerTree == nil {
		t.Fatal("consumer document lacks the producer tree")
	}
	if sh.ProducerTree.Out == 0 {
		t.Error("producer emitted nothing on this stream")
	}
	if cons.Cost == nil || cons.Cost.Tree != nil {
		t.Errorf("consumer cost tree should be absent (prefix cost belongs to the producer); cost = %+v", cons.Cost)
	}

	m := rt.Metrics()
	if len(m.Producers) != 1 {
		t.Fatalf("metrics producers = %+v", m.Producers)
	}
	if m.Producers[0].Events == 0 || m.Producers[0].Readers == 0 {
		t.Errorf("producer metrics empty: %+v", m.Producers[0])
	}
}

// TestExplainErrors covers the failure surface: unknown ids and closed
// runtimes must error, not hang or panic.
func TestExplainErrors(t *testing.T) {
	rt := New(Config{Shards: 1})
	if _, err := rt.Explain(42); !errors.Is(err, ErrUnknownQuery) {
		t.Errorf("unknown id: err = %v", err)
	}
	var uq *UnknownQueryError
	if _, err := rt.Explain(42); !errors.As(err, &uq) || uq.ID != 42 {
		t.Errorf("unknown id: err = %v, want UnknownQueryError{42}", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Explain(1); err != ErrClosed {
		t.Errorf("closed: err = %v", err)
	}
	m := rt.Metrics() // must not hang on dead workers
	if len(m.Queries) != 0 {
		t.Errorf("closed runtime reported queries: %+v", m.Queries)
	}
}

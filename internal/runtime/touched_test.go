package runtime

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
)

// Tests for O(touched) batch rounds: a shard worker visits only the engine
// groups that got events or still owe a round, so registered-but-idle
// queries cost nothing per batch, while a group whose match is pending on
// time alone keeps being visited until it has delivered.

// idleAlertSrc is a standing alert on a symbol no test stream carries.
func idleAlertSrc(i int) string {
	return fmt.Sprintf(`PATTERN A; B
		WHERE A.name = 'Z%04d' AND B.name = 'Z%04d' AND B.price > A.price + %d
		WITHIN 20 units RETURN A, B`, i, i, i%7)
}

// TestShardRoundsIndependentOfIdleQueries runs the same stream and the same
// 8 hot queries (one per equality-dispatched template, trailing negation
// and closure included) beside 64 and beside 4,096 idle alerts. Counts,
// not clocks: the transcripts must be byte-identical and every shard must
// have run exactly the same number of batch-boundary rounds.
func TestShardRoundsIndependentOfIdleQueries(t *testing.T) {
	var hot []string
	for i, src := range fanoutQuerySrcs(14, 8) {
		if i%7 != 2 && i%7 != 3 { // the unindexed templates are hot for every event
			hot = append(hot, src)
		}
	}
	hot = hot[:8]
	events := stockStream(6000, 8, 5)
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64, UseHash: true}

	run := func(idle int) ([]string, []uint64) {
		rt := New(Config{Shards: 2, BatchSize: 64})
		var transcript []string
		next := 0
		for i, src := range hot {
			// Idle alerts interleave with the hot queries, so slot ordinals
			// differ between the two runs while their order does not.
			for ; next < (i+1)*idle/len(hot); next++ {
				if _, err := rt.Register(query.MustParse(idleAlertSrc(next)), ecfg, func(*core.Match) {
					t.Error("idle alert matched")
				}); err != nil {
					t.Fatal(err)
				}
			}
			i := i
			if _, err := rt.Register(query.MustParse(src), ecfg, func(m *core.Match) {
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
		st := rt.Stats()
		if st.LiveQueries != idle+len(hot) {
			t.Fatalf("live queries = %d, want %d", st.LiveQueries, idle+len(hot))
		}
		return transcript, st.RoundsByShard
	}

	few, fewRounds := run(64)
	many, manyRounds := run(4096)
	if len(few) == 0 {
		t.Fatal("hot queries produced no matches; test is vacuous")
	}
	diffTranscripts(t, few, many)
	if !slices.Equal(fewRounds, manyRounds) {
		t.Errorf("rounds depend on idle registrations: %v beside 64 idle alerts, %v beside 4096", fewRounds, manyRounds)
	}
	t.Logf("rounds per shard: %v; %d matches", fewRounds, len(few))
	for shard, n := range fewRounds {
		if n == 0 {
			t.Errorf("shard %d ran no rounds", shard)
		}
	}
}

// TestIdleEngineWithPendingMatchReleasesByTime: an engine that gets no
// further events but still owes a match — a trailing negation waiting for
// its window to expire, or a reorder backlog waiting for the disorder bound
// to pass — stays in the worker's carry-over set, so the match is confirmed
// and delivered by stream time alone, without Close.
func TestIdleEngineWithPendingMatchReleasesByTime(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		cfg  core.Config
		rare []float64 // prices of the RARE events that open the stream
	}{
		{"trailing-negation", `PATTERN A; !B
			WHERE A.name = 'RARE' AND B.name = 'RARE' AND B.price > A.price
			WITHIN 10 units RETURN A`, core.Config{BatchSize: 16}, []float64{10}},
		{"reorder-backlog", `PATTERN A; B
			WHERE A.name = 'RARE' AND B.name = 'RARE' AND B.price > A.price
			WITHIN 10 units RETURN A, B`, core.Config{BatchSize: 16, MaxDisorder: 50}, []float64{10, 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(Config{Shards: 1, BatchSize: 16})
			var delivered atomic.Uint64
			if _, err := rt.Register(query.MustParse(tc.src), tc.cfg, func(*core.Match) {
				delivered.Add(1)
			}); err != nil {
				t.Fatal(err)
			}
			ts := int64(1)
			for _, p := range tc.rare {
				if err := rt.Ingest(event.NewStock(0, ts, 0, "RARE", p, 1)); err != nil {
					t.Fatal(err)
				}
				ts++
			}
			// Only IBM events follow: the router never delivers them to the
			// RARE engine, which is left with time as its only input.
			for i := 0; i < 2000; i++ {
				if err := rt.Ingest(event.NewStock(0, ts, 0, "IBM", 1, 1)); err != nil {
					t.Fatal(err)
				}
				ts++
			}
			deadline := time.Now().Add(10 * time.Second)
			for delivered.Load() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if delivered.Load() != 1 {
				t.Errorf("%d matches delivered before Close, want 1: the idle engine fell out of the carry-over set", delivered.Load())
			}
			rounds := rt.Stats().RoundsByShard[0]
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			if delivered.Load() != 1 {
				t.Fatalf("%d matches delivered in total, want 1", delivered.Load())
			}
			// Once it has delivered, the engine owes nothing: far fewer
			// rounds than the ~125 batches the stream was cut into.
			if rounds == 0 || rounds > 20 {
				t.Errorf("engine was visited in %d batches, want a handful", rounds)
			}
		})
	}
}

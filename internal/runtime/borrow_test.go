package runtime

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/wal"
)

// TestRecycledMatchIsPoisoned pins the OnMatch contract: the *Match a
// callback gets is borrowed until it returns. Under the poison hook a
// match kept past its callback reads as poison once the merger recycled
// it, while a Clone taken inside the callback keeps its content. Two
// textually identical queries share one engine group, so their callbacks
// borrow the same copy of each match; both must see it whole.
func TestRecycledMatchIsPoisoned(t *testing.T) {
	rt := New(Config{Shards: 2, BatchSize: 16, test: testHooks{poison: true}})
	src := `PATTERN A; B WHERE A.name = B.name AND B.price > A.price WITHIN 30 units`
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 8}
	var kept [2][]*core.Match
	var seen [2][]string
	var clones [2][]*core.Match
	for i := range kept {
		i := i
		if _, err := rt.Register(query.MustParse(src), ecfg, func(m *core.Match) {
			kept[i] = append(kept[i], m)
			seen[i] = append(seen[i], canon(m))
			clones[i] = append(clones[i], m.Clone())
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := rt.Stats(); st.EngineGroups != 1 {
		t.Fatalf("engine groups = %d, want 1 (the second query aliases the first)", st.EngineGroups)
	}
	for _, ev := range stockStream(600, 4, 3) {
		if err := rt.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if len(kept[0]) == 0 {
		t.Fatal("no matches; test is vacuous")
	}
	if len(kept[0]) != len(kept[1]) {
		t.Fatalf("aliases delivered %d and %d matches", len(kept[0]), len(kept[1]))
	}
	for j := range kept[0] {
		if kept[0][j] != kept[1][j] {
			t.Fatalf("match %d: aliases got distinct copies, want the one shared copy", j)
		}
		if seen[0][j] != seen[1][j] {
			t.Fatalf("match %d: aliases saw %s and %s", j, seen[0][j], seen[1][j])
		}
		for i := range kept {
			if m := kept[i][j]; m.End != poisonEnd || m.Start != poisonEnd {
				t.Fatalf("query %d match %d kept past its callback reads %s, want poison", i, j, canon(m))
			}
			if got := canon(clones[i][j]); got != seen[i][j] {
				t.Fatalf("query %d match %d: clone reads %s, callback saw %s", i, j, got, seen[i][j])
			}
		}
	}
}

// TestMetricsWaitsForMerger pins Metrics as a barrier through the merger:
// when it returns, every match the shards' watermarks let go has been
// delivered. On a stream with distinct timestamps and a query with no
// time-driven confirmation, that is every match ending before the last
// ingested event — the single-engine reference says how many — and
// MatchesDelivered equals the OnMatch calls observed.
func TestMetricsWaitsForMerger(t *testing.T) {
	src := `PATTERN A; B WHERE A.name = B.name AND B.price > A.price WITHIN 20 units`
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 16}
	events := stockStream(3000, 6, 11)
	var ends []int64
	eng, err := core.NewEngine(query.MustParse(src), ecfg, func(m *core.Match) { ends = append(ends, m.End) })
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		cp := *ev
		eng.Process(&cp)
	}
	eng.Flush()
	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rt := New(Config{Shards: shards, BatchSize: 64})
			var calls atomic.Uint64
			if _, err := rt.Register(query.MustParse(src), ecfg, func(*core.Match) { calls.Add(1) }); err != nil {
				t.Fatal(err)
			}
			for n := 0; n < len(events); {
				next := min(n+37+n%91, len(events))
				for _, ev := range events[n:next] {
					cp := *ev
					if err := rt.Ingest(&cp); err != nil {
						t.Fatal(err)
					}
				}
				n = next
				st := rt.Metrics().Stats
				got := calls.Load()
				if st.MatchesDelivered != got {
					t.Fatalf("after %d events: MatchesDelivered %d, OnMatch calls %d", n, st.MatchesDelivered, got)
				}
				last := events[n-1].Ts
				want := uint64(0)
				for _, e := range ends {
					if e < last {
						want++
					}
				}
				if got != want {
					t.Fatalf("after %d events: %d matches delivered, %d end before ts %d", n, got, want, last)
				}
			}
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			if got := calls.Load(); got != uint64(len(ends)) {
				t.Fatalf("after Close: %d matches delivered, want %d", got, len(ends))
			}
		})
	}
}

// TestEmitCursorOneRoundPerEnd pins what the WAL's (end, count) emit
// cursor relies on: one release round drains every match at its largest
// end. On a durable 2-shard runtime where each timestamp ends matches on
// both shards and for two queries, the emit watermark records read back
// from the log have strictly increasing Ends, and each record's Count is
// every delivered match at its End.
func TestEmitCursorOneRoundPerEnd(t *testing.T) {
	dir := t.TempDir()
	rt, _, err := NewDurable(Config{Shards: 2, BatchSize: 32,
		Durability: &DurConfig{Dir: dir, Fsync: wal.FsyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	atEnd := map[int64]uint64{}
	var delivered uint64
	emit := func(m *core.Match) {
		atEnd[m.End]++
		delivered++
	}
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 8}
	for _, src := range []string{
		`PATTERN A; B WHERE A.name = B.name AND B.price > A.price WITHIN 6 units`,
		`PATTERN A; B WHERE A.name = B.name AND B.price < A.price WITHIN 4 units`,
	} {
		if _, err := rt.Register(query.MustParse(src), ecfg, emit); err != nil {
			t.Fatal(err)
		}
	}
	// Eight symbols share every timestamp, so each end time closes matches
	// on both shards at once.
	for ts := int64(1); ts <= 400; ts++ {
		for s := int64(0); s < 8; s++ {
			price := float64((ts*7 + s*13) % 17)
			if err := rt.Ingest(event.NewStock(0, ts, s, fmt.Sprintf("S%d", s), price, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := wal.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EmitWMs) < 10 {
		t.Fatalf("%d emit watermark records; test is vacuous", len(res.EmitWMs))
	}
	shared := 0
	for i, wm := range res.EmitWMs {
		if i > 0 && wm.End <= res.EmitWMs[i-1].End {
			t.Fatalf("emit watermark %d: End %d after %d, want strictly increasing", i, wm.End, res.EmitWMs[i-1].End)
		}
		if wm.Count != atEnd[wm.End] {
			t.Fatalf("emit watermark %d: (End %d, Count %d), but %d matches were delivered at that End", i, wm.End, wm.Count, atEnd[wm.End])
		}
		if wm.Count > 2 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no end time carried more than two matches; test is vacuous")
	}
	if last := res.EmitWMs[len(res.EmitWMs)-1]; delivered == 0 || last != res.WM {
		t.Fatalf("last record %+v, scan maximum %+v, %d delivered", last, res.WM, delivered)
	}
}

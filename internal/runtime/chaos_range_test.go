package runtime

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/query"
)

// rangeChurnSrcs builds n threshold-family queries with pairwise-distinct
// constants (so nothing dedupes onto a shared group): each contributes
// exactly two sorted-threshold entries per compiled schema table, making
// the live range-index size exactly countable.
func rangeChurnSrcs(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf(`PATTERN A; B
			WHERE A.price > %d AND B.price <= %d
			WITHIN 10 units RETURN A, B`, i, i+20))
	}
	return out
}

// chaosChurnRun is churnRun plus a deterministic engine panic: queries
// register/unregister at exact stream positions while the injector panics
// one victim group mid-stream. Returns the transcript, the quarantined
// indices, and the final live range-table entry count (summed over shards)
// captured before Close.
func chaosChurnRun(t testing.TB, srcs []string, cfg Config, ecfg core.Config,
	events []*event.Event, arm func(rt *Runtime, ids []QueryID)) (transcript []string, quarantined map[int]bool, rangeEntries uint64) {
	t.Helper()
	if arm != nil {
		cfg.test.injector = faultinject.New()
	}
	rt := New(cfg)
	ids := make([]QueryID, len(srcs))
	register := func(i int) {
		q := query.MustParse(srcs[i])
		id, err := rt.Register(q, ecfg, func(m *core.Match) {
			transcript = append(transcript, fmt.Sprintf("q%03d %s", i, canon(m)))
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	late := len(srcs) / 3
	for i := 0; i < len(srcs)-late; i++ {
		register(i)
	}
	if arm != nil {
		arm(rt, ids)
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
	for i := 0; i < len(srcs)-late; i += 4 {
		if err := rt.Unregister(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	ingest(events[2*third:])
	rangeEntries = rt.Metrics().Router.RangeTableEntries
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	idx := make(map[QueryID]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	quarantined = map[int]bool{}
	for _, f := range rt.Faults() {
		i, ok := idx[f.ID]
		if !ok {
			t.Fatalf("fault for unknown query id %d: %+v", f.ID, f)
		}
		quarantined[i] = true
	}
	return transcript, quarantined, rangeEntries
}

// TestChaosRangeChurnUnderQuarantine races range-atom query churn against a
// faultinject-driven engine panic: threshold tables must stay consistent —
// no stale subscribers delivering after unregister or quarantine, survivors
// byte-identical to the fault-free run, and the live range-index entry
// count exactly the surviving subscription count (two entries per query per
// shard, since every query range-dispatches both classes).
func TestChaosRangeChurnUnderQuarantine(t *testing.T) {
	srcs := rangeChurnSrcs(36)
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 32}
	events := stockStream(3000, 8, 29)
	const victim = 1 // early registrant, not in the unregister set (0,4,8,…)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{Shards: shards, BatchSize: 64}
			baseline, _, baseEntries := chaosChurnRun(t, srcs, cfg, ecfg, events, nil)
			chaos, quarantined, chaosEntries := chaosChurnRun(t, srcs, cfg, ecfg, events,
				func(rt *Runtime, ids []QueryID) {
					rt.cfg.test.injector.Arm(faultinject.Rule{
						Site:  faultinject.SiteEngineBatch,
						Shard: faultinject.AnyShard,
						ID:    gidOf(t, rt, ids[victim]),
						Nth:   4,
						Act:   faultinject.ActPanic,
					})
				})
			if !quarantined[victim] || len(quarantined) != 1 {
				t.Fatalf("quarantined = %v, want exactly victim %d", quarantined, victim)
			}
			if len(baseline) == 0 {
				t.Fatal("fault-free run produced no matches; test is vacuous")
			}
			diffTranscripts(t, stripQuarantined(baseline, quarantined),
				stripQuarantined(chaos, quarantined))

			// Exact index-size accounting: every live query holds two
			// threshold entries in each shard's compiled stock table. The
			// chaos run has one fewer (the quarantined victim was removed
			// from every shard's index).
			early := len(srcs) - len(srcs)/3
			unregistered := (early + 3) / 4
			live := len(srcs) - unregistered
			want := uint64(2 * live * shards)
			if baseEntries != want {
				t.Errorf("fault-free range entries = %d, want %d", baseEntries, want)
			}
			if chaosEntries != want-uint64(2*shards) {
				t.Errorf("chaos range entries = %d, want %d (victim removed)", chaosEntries, want-uint64(2*shards))
			}
		})
	}
}

// TestRangeMetricsSurface pins the new router metrics end to end: range
// probes accumulate, the table-entry gauge reflects live registrations, and
// residual evals stay zero for a pure threshold-family workload.
func TestRangeMetricsSurface(t *testing.T) {
	rt := New(Config{Shards: 2, BatchSize: 16})
	for i, src := range rangeChurnSrcs(8) {
		if _, err := rt.Register(query.MustParse(src), core.Config{BatchSize: 16}, nil); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	for i := 0; i < 200; i++ {
		if err := rt.Ingest(event.NewStock(0, int64(i), int64(i), fmt.Sprintf("S%02d", i%8), float64(i%40), 1)); err != nil {
			t.Fatal(err)
		}
	}
	m := rt.Metrics()
	if m.Router.RangeProbes == 0 {
		t.Error("range probes = 0, want > 0")
	}
	if m.Router.ResidualEvals != 0 {
		t.Errorf("residual evals = %d, want 0 (pure threshold workload)", m.Router.ResidualEvals)
	}
	if m.Router.RangeTableEntries == 0 {
		t.Error("range table entries = 0, want > 0")
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"zstream_router_range_probes_total", "zstream_router_range_table_entries"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("prometheus output missing %s", want)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

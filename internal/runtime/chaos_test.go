package runtime

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/query"
)

// Chaos differential suite: inject a deterministic panic into one victim
// query and compare every OTHER query's match transcript against a
// fault-free run of the identical configuration. Containment is only real
// if the blast radius is exactly the quarantined set — survivors must be
// byte-identical, in content and delivery order, across router/naive
// fan-out, sharing on/off, and shard counts.

// chaosRun is fanoutRun plus an injector: it registers srcs with
// transcript-recording sinks, lets arm pick rules once group/producer ids
// are known, ingests, closes, and returns the transcript together with
// the set of transcript indices that were quarantined.
func chaosRun(t testing.TB, srcs []string, cfg Config, ecfg core.Config,
	events []*event.Event, arm func(rt *Runtime, ids []QueryID)) (transcript []string, quarantined map[int]bool) {
	t.Helper()
	inj := faultinject.New()
	cfg.test.injector = inj
	rt := New(cfg)
	ids := make([]QueryID, len(srcs))
	for i, src := range srcs {
		i := i
		q := query.MustParse(src)
		id, err := rt.Register(q, ecfg, func(m *core.Match) {
			transcript = append(transcript, fmt.Sprintf("q%03d %s", i, canon(m)))
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	arm(rt, ids)
	for _, ev := range events {
		cp := *ev
		if err := rt.Ingest(&cp); err != nil {
			t.Fatal(err)
		}
	}
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
	return transcript, quarantined
}

// stripQuarantined drops every transcript line belonging to a quarantined
// query index, leaving the survivors' lines in their original order.
func stripQuarantined(transcript []string, quarantined map[int]bool) []string {
	out := make([]string, 0, len(transcript))
	for _, line := range transcript {
		var i int
		if _, err := fmt.Sscanf(line, "q%03d ", &i); err != nil {
			panic("malformed transcript line: " + line)
		}
		if !quarantined[i] {
			out = append(out, line)
		}
	}
	return out
}

// hasLines reports whether any transcript line belongs to index i.
func hasLines(transcript []string, i int) bool {
	prefix := fmt.Sprintf("q%03d ", i)
	for _, line := range transcript {
		if strings.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}

// TestChaosDifferentialEngineFault panics one victim engine group at a
// seed-derived batch, across shard counts and both fan-out paths: every
// survivor's transcript must equal the fault-free run's byte for byte.
func TestChaosDifferentialEngineFault(t *testing.T) {
	srcs := fanoutQuerySrcs(48, 8)
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 32}
	events := stockStream(3000, 8, 11)
	const victim = 5
	for _, seed := range []int64{1, 2} {
		for _, shards := range []int{1, 2, 3} {
			for _, naive := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed=%d/shards=%d/naive=%v", seed, shards, naive), func(t *testing.T) {
					cfg := Config{Shards: shards, BatchSize: 64, test: testHooks{naiveFanout: naive}}
					baseline := fanoutRun(t, srcs, cfg, ecfg, events)
					chaos, quarantined := chaosRun(t, srcs, cfg, ecfg, events,
						func(rt *Runtime, ids []QueryID) {
							rt.cfg.test.injector.Arm(faultinject.Rule{
								Site:  faultinject.SiteEngineBatch,
								Shard: faultinject.AnyShard,
								ID:    gidOf(t, rt, ids[victim]),
								Nth:   faultinject.DeriveNth(seed, 6),
								Act:   faultinject.ActPanic,
							})
						})
					if !quarantined[victim] {
						t.Fatalf("victim %d not quarantined (quarantined = %v); injection never fired", victim, quarantined)
					}
					if len(quarantined) != 1 {
						t.Fatalf("blast radius beyond the victim: %v", quarantined)
					}
					if len(baseline) == 0 {
						t.Fatal("fault-free run produced no matches; test is vacuous")
					}
					diffTranscripts(t, stripQuarantined(baseline, quarantined),
						stripQuarantined(chaos, quarantined))
				})
			}
		}
	}
}

// TestChaosDifferentialNoSharing repeats the engine-fault differential
// with sharing disabled, so quarantine paths that skip producer teardown
// are also held to the survivors-identical bar.
func TestChaosDifferentialNoSharing(t *testing.T) {
	srcs := prefixQuerySrcs(35, 6)
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 32}
	events := stockStream(2500, 6, 17)
	const victim = 8
	for _, noShare := range []bool{false, true} {
		t.Run(fmt.Sprintf("noSharing=%v", noShare), func(t *testing.T) {
			cfg := Config{Shards: 2, BatchSize: 64, test: testHooks{noSharing: noShare}}
			baseline := fanoutRun(t, srcs, cfg, ecfg, events)
			chaos, quarantined := chaosRun(t, srcs, cfg, ecfg, events,
				func(rt *Runtime, ids []QueryID) {
					rt.cfg.test.injector.Arm(faultinject.Rule{
						Site:  faultinject.SiteEngineBatch,
						Shard: faultinject.AnyShard,
						ID:    gidOf(t, rt, ids[victim]),
						Nth:   2,
						Act:   faultinject.ActPanic,
					})
				})
			if !quarantined[victim] {
				t.Fatalf("victim %d not quarantined: %v", victim, quarantined)
			}
			if len(baseline) == 0 {
				t.Fatal("fault-free run produced no matches; test is vacuous")
			}
			diffTranscripts(t, stripQuarantined(baseline, quarantined),
				stripQuarantined(chaos, quarantined))
		})
	}
}

// TestChaosDifferentialProducerFault kills a shared-subplan producer
// mid-stream: every consumer group reading it is quarantined with it,
// while the family's solo (first registrant, private prefix) and every
// unrelated query must stay byte-identical to the fault-free run.
func TestChaosDifferentialProducerFault(t *testing.T) {
	srcs := prefixQuerySrcs(35, 6)
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 32}
	events := stockStream(2500, 6, 23)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{Shards: shards, BatchSize: 64}
			baseline := fanoutRun(t, srcs, cfg, ecfg, events)
			var nConsumers int
			chaos, quarantined := chaosRun(t, srcs, cfg, ecfg, events,
				func(rt *Runtime, ids []QueryID) {
					// Target the first prefix family's shared producer.
					var prodID int64
					for _, id := range ids {
						gs := rt.groups[rt.live[id].key]
						if gs != nil && gs.consumer {
							prodID = rt.prefixes[gs.prefixKey].prodID
							break
						}
					}
					if prodID == 0 {
						t.Fatal("no shared producer materialized; test is vacuous")
					}
					for _, id := range ids {
						gs := rt.groups[rt.live[id].key]
						if gs != nil && gs.consumer && rt.prefixes[gs.prefixKey].prodID == prodID {
							nConsumers += gs.members
						}
					}
					rt.cfg.test.injector.Arm(faultinject.Rule{
						Site:  faultinject.SiteProducerBatch,
						Shard: faultinject.AnyShard,
						ID:    prodID,
						Nth:   3,
						Act:   faultinject.ActPanic,
					})
				})
			if len(quarantined) != nConsumers {
				t.Fatalf("quarantined %d queries, want the producer's %d consumers: %v",
					len(quarantined), nConsumers, quarantined)
			}
			if len(baseline) == 0 {
				t.Fatal("fault-free run produced no matches; test is vacuous")
			}
			diffTranscripts(t, stripQuarantined(baseline, quarantined),
				stripQuarantined(chaos, quarantined))
		})
	}
}

// TestChaosDifferentialEmitFault panics one alias's OnMatch callback via
// the emit injection site: only that alias is quarantined — its dedupe
// twin (same engine group) and every other query must match the fault-free
// run exactly.
func TestChaosDifferentialEmitFault(t *testing.T) {
	srcs := prefixQuerySrcs(35, 6)
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 32}
	events := stockStream(2500, 6, 31)
	// prefixQuerySrcs makes case-2 indices exact duplicates of a case-0
	// query with the same symbol and d=55: with 6 symbols, index 30
	// (i%7 == 2, symbol S00) duplicates index 0 (i%7 == 0, S00, d=55).
	const victim, twin = 30, 0
	cfg := Config{Shards: 2, BatchSize: 64}
	baseline := fanoutRun(t, srcs, cfg, ecfg, events)
	chaos, quarantined := chaosRun(t, srcs, cfg, ecfg, events,
		func(rt *Runtime, ids []QueryID) {
			if gidOf(t, rt, ids[victim]) != gidOf(t, rt, ids[twin]) {
				t.Fatalf("indices %d and %d did not dedupe; pick different ones", victim, twin)
			}
			rt.cfg.test.injector.Arm(faultinject.Rule{
				Site:  faultinject.SiteEmit,
				Shard: MergerShard,
				ID:    int64(ids[victim]),
				Nth:   2,
				Act:   faultinject.ActPanic,
			})
		})
	if len(quarantined) != 1 || !quarantined[victim] {
		t.Fatalf("quarantined = %v, want exactly the panicking alias %d", quarantined, victim)
	}
	if !hasLines(baseline, twin) {
		t.Fatal("dedupe twin produced no matches; test is vacuous")
	}
	diffTranscripts(t, stripQuarantined(baseline, quarantined),
		stripQuarantined(chaos, quarantined))
}

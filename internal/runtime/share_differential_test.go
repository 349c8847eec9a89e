package runtime

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
)

// Differential tests for cross-query execution sharing (whole-query dedupe
// + shared-subplan prefixes): with the SAME runtime configuration, sharing
// must produce byte-identical match transcripts (content and delivery
// order) to unshared execution (testHooks.noSharing), across prefix-family
// query mixes, shard counts, router and naive fan-out, and live
// registration churn.

// prefixQuerySrcs builds n overlapping queries over `symbols` stock
// symbols, cycling through templates chosen to exercise every sharing
// path: parameterized families with identical canonical `A;B` prefixes and
// varying suffixes (shared-subplan consumers), exact textual duplicates
// (whole-query dedupe), longer shared prefixes, and shapes that are
// deliberately ineligible (trailing negation, trailing closure anchored on
// the would-be prefix) so gating is also covered.
func prefixQuerySrcs(n, symbols int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		sym := fmt.Sprintf("S%02d", i%symbols)
		d := float64(55 + 10*((i/symbols)%4))
		var src string
		switch i % 7 {
		case 0: // shared A;B prefix, suffix threshold varies with d
			src = fmt.Sprintf(`PATTERN A; B; C
				WHERE A.name = '%s' AND A.price > 40 AND B.name = '%s' AND B.price < A.price
				  AND C.name = '%s' AND C.price > %g
				WITHIN 30 units RETURN A, B, C`, sym, sym, sym, d)
		case 1: // same prefix family as case 0, different suffix shape
			src = fmt.Sprintf(`PATTERN A; B; C
				WHERE A.name = '%s' AND A.price > 40 AND B.name = '%s' AND B.price < A.price
				  AND C.name = '%s' AND C.price < %g AND C.price > B.price
				WITHIN 30 units RETURN A, C`, sym, sym, sym, d+20)
		case 2: // exact duplicate of a case-0 query (d fixed): dedupe
			src = fmt.Sprintf(`PATTERN A; B; C
				WHERE A.name = '%s' AND A.price > 40 AND B.name = '%s' AND B.price < A.price
				  AND C.name = '%s' AND C.price > %g
				WITHIN 30 units RETURN A, B, C`, sym, sym, sym, 55.0)
		case 3: // longer shared prefix: A;B;C shared, D varies
			src = fmt.Sprintf(`PATTERN A; B; C; D
				WHERE A.name = '%s' AND B.name = '%s' AND B.price > A.price
				  AND C.name = '%s' AND C.price > B.price
				  AND D.name = '%s' AND D.price < %g
				WITHIN 40 units RETURN A, D`, sym, sym, sym, sym, d)
		case 4: // trailing Kleene above a shared A;B prefix (KSEQ anchor C)
			src = fmt.Sprintf(`PATTERN A; B; C; D+
				WHERE A.name = '%s' AND A.price < %g AND B.name = '%s' AND B.price > A.price
				  AND C.name = '%s' AND D.name = '%s' AND D.price > C.price
				WITHIN 25 units RETURN A, C, D`, sym, 100-d+40, sym, sym, sym)
		case 5: // trailing negation: prefix ineligible (anchor fuses B)
			src = fmt.Sprintf(`PATTERN A; B; !C
				WHERE A.name = '%s' AND A.price > %g AND B.name = '%s' AND B.price > A.price
				  AND C.name = '%s' AND C.price > B.price
				WITHIN 20 units RETURN A, B`, sym, d, sym, sym)
		default: // suffix predicate reaching back into the shared prefix
			src = fmt.Sprintf(`PATTERN A; B; C
				WHERE A.name = '%s' AND A.price > 40 AND B.name = '%s' AND B.price < A.price
				  AND C.name = '%s' AND C.price > A.price + %g
				WITHIN 30 units RETURN B, C`, sym, sym, sym, d-50)
		}
		out = append(out, src)
	}
	return out
}

// TestSharingDifferentialPrefixFamilies: shared-subplan execution must be
// byte-identical to unshared execution over prefix-heavy query mixes, for
// several shard counts and seeds, with the router enabled.
func TestSharingDifferentialPrefixFamilies(t *testing.T) {
	srcs := prefixQuerySrcs(105, 12)
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}
	for _, seed := range []int64{5, 29} {
		events := stockStream(5000, 12, seed)
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				base := Config{Shards: shards, BatchSize: 128}
				unsharedCfg, sharedCfg := base, base
				unsharedCfg.test.noSharing = true
				unshared := fanoutRun(t, srcs, unsharedCfg, ecfg, events)
				shared := fanoutRun(t, srcs, sharedCfg, ecfg, events)
				if len(unshared) == 0 {
					t.Fatal("workload produced no matches; test is vacuous")
				}
				diffTranscripts(t, unshared, shared)
			})
		}
	}
}

// TestSharingDifferentialRouterTemplates replays PR 3's seven router
// templates (equality dispatch, residuals, unconstrained classes,
// negation, trailing closure) under sharing vs no sharing — these exercise
// whole-query dedupe (the family contains exact duplicates) plus all the
// gating paths, on both the router and the naive fan-out.
func TestSharingDifferentialRouterTemplates(t *testing.T) {
	srcs := fanoutQuerySrcs(120, 16)
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}
	events := stockStream(5000, 16, 7)
	for _, naive := range []bool{false, true} {
		t.Run(fmt.Sprintf("naive=%v", naive), func(t *testing.T) {
			base := Config{Shards: 2, BatchSize: 128, test: testHooks{naiveFanout: naive}}
			unsharedCfg, sharedCfg := base, base
			unsharedCfg.test.noSharing = true
			unshared := fanoutRun(t, srcs, unsharedCfg, ecfg, events)
			shared := fanoutRun(t, srcs, sharedCfg, ecfg, events)
			if len(unshared) == 0 {
				t.Fatal("workload produced no matches; test is vacuous")
			}
			diffTranscripts(t, unshared, shared)
		})
	}
}

// TestSharingDifferentialOptimalPlans repeats the prefix-family comparison
// with the cost-based plan search and hash joins enabled: shared consumers
// compose their suffix joins over the shared source with a fixed shape,
// which must not change the match transcript.
func TestSharingDifferentialOptimalPlans(t *testing.T) {
	srcs := prefixQuerySrcs(70, 8)
	ecfg := core.Config{Strategy: core.StrategyOptimal, UseHash: true, BatchSize: 32}
	events := stockStream(4000, 8, 17)
	base := Config{Shards: 2, BatchSize: 64}
	unsharedCfg, sharedCfg := base, base
	unsharedCfg.test.noSharing = true
	unshared := fanoutRun(t, srcs, unsharedCfg, ecfg, events)
	shared := fanoutRun(t, srcs, sharedCfg, ecfg, events)
	if len(unshared) == 0 {
		t.Fatal("workload produced no matches; test is vacuous")
	}
	diffTranscripts(t, unshared, shared)
}

// TestSharingDifferentialChurn registers and unregisters queries at exact
// stream positions: late registrants attach to already-running producers
// (their readers must hide partial matches embedding pre-registration
// events), the family's first registrant (the solo) unregisters while
// consumers live, and consumers unregister down to zero so producers are
// dropped and later re-created. Transcripts must stay byte-identical to
// unshared execution performing the same op sequence.
func TestSharingDifferentialChurn(t *testing.T) {
	srcs := prefixQuerySrcs(84, 12)
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}
	events := stockStream(6000, 12, 43)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := Config{Shards: shards, BatchSize: 100}
			unsharedCfg, sharedCfg := base, base
			unsharedCfg.test.noSharing = true
			unshared := churnRun(t, srcs, unsharedCfg, ecfg, events)
			shared := churnRun(t, srcs, sharedCfg, ecfg, events)
			if len(unshared) == 0 {
				t.Fatal("workload produced no matches; test is vacuous")
			}
			diffTranscripts(t, unshared, shared)
		})
	}
}

// TestSharingDifferentialAdaptive: adaptive engines are gated out of
// prefix sharing (their private plans may diverge) but still deduplicate
// when textually identical — configurations and admission being equal,
// identical engines adapt identically. Transcripts must agree with
// unshared execution either way.
func TestSharingDifferentialAdaptive(t *testing.T) {
	srcs := prefixQuerySrcs(56, 8)
	ecfg := core.Config{Strategy: core.StrategyOptimal, UseHash: true,
		Adaptive: true, AdaptEvery: 4, BatchSize: 32}
	events := stockStream(4000, 8, 23)
	base := Config{Shards: 2, BatchSize: 64}
	unsharedCfg, sharedCfg := base, base
	unsharedCfg.test.noSharing = true
	unshared := fanoutRun(t, srcs, unsharedCfg, ecfg, events)
	shared := fanoutRun(t, srcs, sharedCfg, ecfg, events)
	if len(unshared) == 0 {
		t.Fatal("workload produced no matches; test is vacuous")
	}
	diffTranscripts(t, unshared, shared)

	// Prefix sharing must actually be disabled for adaptive engines, while
	// textual duplicates (same source registered twice) still dedupe.
	rt := New(Config{Shards: 1})
	for _, src := range append(srcs[:14], srcs[0], srcs[1]) {
		if _, err := rt.Register(query.MustParse(src), ecfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats()
	if st.SharedSubplans != 0 || st.SharedPrefixConsumers != 0 {
		t.Errorf("adaptive engines joined prefix sharing: %+v", st)
	}
	if st.LiveQueries != 16 || st.EngineGroups != 14 {
		t.Errorf("adaptive duplicates did not dedupe: groups=%d live=%d", st.EngineGroups, st.LiveQueries)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSharingEngages guards against the whole differential suite passing
// vacuously: on the prefix-family workload, sharing must actually create
// shared producers, attach consumers, and alias duplicate queries.
func TestSharingEngages(t *testing.T) {
	srcs := prefixQuerySrcs(84, 12)
	rt := New(Config{Shards: 2})
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}
	for _, src := range srcs {
		if _, err := rt.Register(query.MustParse(src), ecfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats()
	if st.SharedSubplans == 0 {
		t.Error("no shared subplan producers created")
	}
	if st.SharedPrefixConsumers == 0 {
		t.Error("no shared-prefix consumers attached")
	}
	if st.EngineGroups >= st.LiveQueries {
		t.Errorf("no whole-query dedupe: groups=%d live=%d", st.EngineGroups, st.LiveQueries)
	}
	// Ingest something so shared execution actually runs, then confirm
	// matches flow and Close drains cleanly.
	var matches int
	id, err := rt.Register(query.MustParse(srcs[0]), ecfg, func(*core.Match) { matches++ })
	if err != nil {
		t.Fatal(err)
	}
	_ = id
	for _, ev := range stockStream(3000, 12, 11) {
		cp := *ev
		if err := rt.Ingest(&cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if matches == 0 {
		t.Error("no matches delivered to a deduped late registrant")
	}
}

// TestWarmDuplicateRegistration pins the group-registry collision bug: a
// textually identical query registered after events have flowed (so the
// cold-group aliasing rule declines) must get its own group without
// clobbering the live group's registry entry; both queries must then
// unregister cleanly and produce the same matches a private engine would.
func TestWarmDuplicateRegistration(t *testing.T) {
	src := `PATTERN A; B WHERE A.name = 'S00' AND B.name = 'S00' AND B.price > A.price WITHIN 20 units RETURN A, B`
	rt := New(Config{Shards: 2, BatchSize: 8})
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 16}
	var n1, n2 int
	id1, err := rt.Register(query.MustParse(src), ecfg, func(*core.Match) { n1++ })
	if err != nil {
		t.Fatal(err)
	}
	events := stockStream(600, 4, 3)
	for _, ev := range events[:300] {
		cp := *ev
		if err := rt.Ingest(&cp); err != nil {
			t.Fatal(err)
		}
	}
	// Warm now: the duplicate must become a separate group.
	id2, err := rt.Register(query.MustParse(src), ecfg, func(*core.Match) { n2++ })
	if err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.EngineGroups != 2 {
		t.Errorf("warm duplicate aliased onto live group: %d groups", st.EngineGroups)
	}
	for _, ev := range events[300:] {
		cp := *ev
		if err := rt.Ingest(&cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Unregister(id1); err != nil {
		t.Fatal(err)
	}
	if err := rt.Unregister(id2); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if n1 == 0 {
		t.Fatal("workload produced no matches; test is vacuous")
	}
}

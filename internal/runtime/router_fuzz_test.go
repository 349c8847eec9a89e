package runtime

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// fuzzQuerySrcs derives a deterministic query mix from rng: equality atoms,
// range atoms in every operator/orientation, BETWEEN shapes, duplicate
// thresholds, arithmetic residuals, shared class prefixes, and
// unconstrained classes — the full admission matrix the router has to get
// right.
func fuzzQuerySrcs(rng *rand.Rand, n, symbols int) []string {
	ops := []string{"<", "<=", ">", ">="}
	// A small threshold pool forces duplicates across queries (the
	// equal-threshold walks) and includes negatives and zero.
	thPool := []float64{-5, 0, 20, 50, 50, 80, 99}
	th := func() float64 { return thPool[rng.Intn(len(thPool))] }
	op := func() string { return ops[rng.Intn(len(ops))] }
	sym := func() string { return fmt.Sprintf("S%02d", rng.Intn(symbols)) }
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var src string
		switch rng.Intn(6) {
		case 0: // pure threshold family (range dispatch both classes)
			src = fmt.Sprintf(`PATTERN A; B WHERE A.price %s %g AND B.price %s %g
				WITHIN 12 units RETURN A, B`, op(), th(), op(), th())
		case 1: // eq + range on the same class (eq wins dispatch)
			src = fmt.Sprintf(`PATTERN A; B WHERE A.name = '%s' AND A.price %s %g AND B.name = '%s'
				WITHIN 20 units RETURN A, B`, sym(), op(), th(), sym())
		case 2: // BETWEEN shape + literal-on-left orientation
			lo := th()
			src = fmt.Sprintf(`PATTERN A; B WHERE A.price > %g AND A.price <= %g AND %g < B.price
				WITHIN 10 units RETURN A, B`, lo, lo+30, th())
		case 3: // range + arithmetic residual (mixed dispatch/residual class)
			src = fmt.Sprintf(`PATTERN A; B WHERE A.price %s %g AND B.price * B.volume > %g
				WITHIN 15 units RETURN A, B`, op(), th(), 10*th()+5)
		case 4: // unconstrained class degradation riding alongside ranges
			src = fmt.Sprintf(`PATTERN A; B WHERE A.price %s %g
				WITHIN 6 units RETURN A, B`, op(), th())
		default: // shared prefix: same leading class predicates, distinct tail
			src = fmt.Sprintf(`PATTERN A; B WHERE A.name = 'S00' AND A.price > 50 AND B.price %s %g
				WITHIN 25 units RETURN A, B`, op(), th())
		}
		out = append(out, src)
	}
	return out
}

// FuzzRouterDifferential fuzzes the whole fan-out plane: for a generated
// query mix and event stream, the gen-2 router (range dispatch), the gen-1
// router (ranges forced residual), and naive deliver-to-all must produce
// byte-identical match transcripts. Any divergence — a dropped admission at
// a threshold boundary, a duplicate around churn, an ordering change — is a
// crash-grade finding.
func FuzzRouterDifferential(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(1), uint16(600))
	f.Add(int64(7), uint8(24), uint8(2), uint16(900))
	f.Add(int64(42), uint8(18), uint8(3), uint16(700))
	f.Add(int64(99), uint8(6), uint8(2), uint16(400))
	f.Fuzz(func(t *testing.T, seed int64, nq, shards uint8, nev uint16) {
		nQueries := 1 + int(nq)%32
		nShards := 1 + int(shards)%3
		nEvents := 100 + int(nev)%1200
		rng := rand.New(rand.NewSource(seed))
		srcs := fuzzQuerySrcs(rng, nQueries, 8)
		events := stockStream(nEvents, 8, seed^0x5eed)
		ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 32}
		base := Config{Shards: nShards, BatchSize: 64}

		naiveCfg := base
		naiveCfg.test.naiveFanout = true
		gen1Cfg := base
		gen1Cfg.test.noRangeDispatch = true
		gen2Cfg := base

		naive := fanoutRun(t, srcs, naiveCfg, ecfg, events)
		gen1 := fanoutRun(t, srcs, gen1Cfg, ecfg, events)
		gen2 := fanoutRun(t, srcs, gen2Cfg, ecfg, events)
		diffTranscripts(t, naive, gen1)
		diffTranscripts(t, naive, gen2)
	})
}

package main

import (
	"fmt"

	"repro/internal/core"
)

// workload is one frozen benchmark input: a standing query set, the stream
// it runs over, the runtime shape, and the load constants calibrated once
// on the seed commit (see README.md, "Frozen constants"). Nothing here is
// derived at run time, so two commits always run the same load.
type workload struct {
	name string
	why  string

	shards  int
	durable bool
	core    core.Config
	stream  streamSpec
	queries []string
	// sample indexes the queries checked against the brute-force oracle,
	// one slice per query family; checkEvents is the stream prefix the
	// check covers, long enough that the oracle finds matches in every
	// family (the run fails if it does not) and short enough for an oracle
	// that enumerates every combination of candidates.
	sample      [][]int
	checkEvents int

	// settleEvents are ingested, closed loop and untimed, between the last
	// set-up and the capacity phase: adaptive-q6 runs 10-70% faster over its
	// first two regime cycles than afterwards, by how much depends on the
	// seed (README.md, "Known limits").
	settleEvents int

	// capEvents is the capacity-phase event count at the declared
	// run_seconds, cut into capWindows windows; it is a multiple of
	// capWindows*windowUnit so the windows are equal and, on adaptive-q6,
	// whole regime cycles. pacedEvents is the paced phase's event count, cut
	// into pacedWindows windows and issued at rate events/s.
	capEvents    int
	capWindows   int
	windowUnit   int
	pacedEvents  int
	pacedWindows int
	rate         float64
}

// productionCore is what zstream.Runtime.Register configures by default.
var productionCore = core.Config{Strategy: core.StrategyOptimal, UseHash: true}

const (
	alertSymbols  = 512
	sharedSymbols = 64
	// q6RegimeLen is Fig. 14's per-regime stream length at full scale; a
	// cycle is its three regimes.
	q6RegimeLen = 40_000
	q6Cycle     = 3 * q6RegimeLen
)

// q6Stream cycles Fig. 12's three regimes: relative rates 1:100:100:100,
// then selectivity 1/50 on Oracle.price > Sun.price, then 1/50 on
// Oracle.price > Google.price. A pinned price p makes "Oracle.price > p"
// hold with probability 1-p/100 for a uniform Oracle price.
func q6Stream() streamSpec {
	return streamSpec{
		names:     []string{"IBM", "Sun", "Oracle", "Google"},
		regimeLen: q6RegimeLen,
		regimes: []regime{
			{weights: []float64{1, 100, 100, 100}, pinned: map[string]float64{"Sun": 0, "Google": 0}},
			{weights: uniform(4), pinned: map[string]float64{"Sun": 98, "Google": 0}},
			{weights: uniform(4), pinned: map[string]float64{"Sun": 0, "Google": 98}},
		},
	}
}

const query6 = `PATTERN IBM; Sun; Oracle; Google
	WHERE IBM.name = 'IBM' AND Sun.name = 'Sun'
	AND Oracle.name = 'Oracle' AND Google.name = 'Google'
	AND Oracle.price > Sun.price
	AND Oracle.price > Google.price
	WITHIN 100 units`

// alertQueries is the alerts-1k set: one dip alert per symbol (equality
// dispatch) and as many threshold alerts that differ only in constants
// (range dispatch). Every class is bound to one symbol, directly or through
// A.name = B.name, so the match set does not depend on the shard split.
func alertQueries() []string {
	qs := make([]string, 0, 2*alertSymbols)
	for i := 0; i < alertSymbols; i++ {
		qs = append(qs, fmt.Sprintf(`PATTERN A; B
			WHERE A.name = 'S%03d' AND B.name = 'S%03d' AND B.price < A.price - 90
			WITHIN 2000 units`, i, i))
	}
	for i := 0; i < alertSymbols; i++ {
		hi := 99.6 + float64(i)*0.0007
		lo := 0.4 - float64(i)*0.0005
		qs = append(qs, fmt.Sprintf(`PATTERN A; B
			WHERE A.name = B.name AND A.price > %.4f AND B.price <= %.4f
			WITHIN 2000 units`, hi, lo))
	}
	return qs
}

// sharedQueries is the shared-prefix set: per symbol, 8 queries share the
// canonical A;B dip prefix and differ in the C alert threshold.
func sharedQueries() []string {
	qs := make([]string, 0, 8*sharedSymbols)
	for i := 0; i < 8*sharedSymbols; i++ {
		sym, j := i%sharedSymbols, i/sharedSymbols
		qs = append(qs, fmt.Sprintf(`PATTERN A; B; C
			WHERE A.name = 'S%03d' AND A.price > 45
			AND B.name = 'S%03d' AND B.price < A.price - 75
			AND C.name = 'S%03d' AND C.price > %g
			WITHIN 1000 units`, sym, sym, sym, 99.2+0.1*float64(j)))
	}
	return qs
}

// workloads returns the four frozen workloads, in catalogue order.
func workloads() []*workload {
	alerts := workload{
		name:   "alerts-1k",
		why:    "1,024 standing alerts over 512 symbols: little engine work, so router classification and the per-batch rounds over every engine dominate",
		shards: 2, core: productionCore,
		stream:  streamSpec{names: symbols(alertSymbols), regimes: []regime{{weights: uniform(alertSymbols)}}},
		queries: alertQueries(),
		sample:  [][]int{{0, 17, 255, 511}, {512, 700, 901, 1023}}, checkEvents: 400_000,
		capEvents: 3_000_000, capWindows: 20, windowUnit: 1, pacedEvents: 800_000, pacedWindows: 4, rate: 100_000,
	}
	wal := alerts
	wal.name = "alerts-1k-wal"
	wal.why = "alerts-1k byte for byte behind the write-ahead log (fsync off): isolates encode, append, checkpoint and emit-watermark records"
	wal.durable = true
	return []*workload{
		{
			name:   "adaptive-q6",
			why:    "paper Query 6 alone on one shard, adaptive, over Fig. 12's three regimes: operator assembly and re-planning dominate; router, sharing, merge and WAL are idle",
			shards: 1,
			core: core.Config{Strategy: core.StrategyOptimal, UseHash: true, Adaptive: true,
				AdaptEvery: 2, BatchSize: 256, DriftThreshold: 0.3, ImproveThreshold: 0.05},
			stream:  q6Stream(),
			queries: []string{query6},
			sample:  [][]int{{0}}, checkEvents: 4_000,
			settleEvents: 2 * q6Cycle, capEvents: 3 * q6Cycle, capWindows: 3, windowUnit: q6Cycle, pacedEvents: q6Cycle / 2, pacedWindows: 1, rate: 6_000,
		},
		&alerts,
		{
			name:   "shared-prefix",
			why:    "512 three-class queries, 8 per symbol on one shared A;B prefix: shared producers feed consumers and the match-heavy output loads gather, merge and OnMatch",
			shards: 2, core: productionCore,
			stream:  streamSpec{names: symbols(sharedSymbols), regimes: []regime{{weights: uniform(sharedSymbols)}}},
			queries: sharedQueries(),
			sample:  [][]int{{0, 63, 64, 130, 257, 300, 448, 511}}, checkEvents: 200_000,
			capEvents: 4_000_000, capWindows: 20, windowUnit: 1, pacedEvents: 800_000, pacedWindows: 4, rate: 100_000,
		},
		&wal,
	}
}

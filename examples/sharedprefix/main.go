// Sharedprefix: serve a family of parameterized three-step alerts —
// "after the <symbol> dip pattern, alert me when price recovers past N" —
// and let the runtime share their common work. All queries per symbol
// agree on the same canonical `Dip1; Dip2` prefix, so one shared subplan
// per shard buffers and joins it once while every query's engine only
// evaluates its private recovery threshold; textually identical queries
// collapse onto one engine entirely. The printed stats show physical
// engine groups, shared producers and consumers next to the registered
// query count.
package main

import (
	"fmt"
	"log"
	"time"

	zstream "repro"
	"repro/internal/workload"
)

const (
	symbols = 8
	// alert tiers per symbol: recovery thresholds spread over the top of
	// the price range, plus one duplicated "house default" alert per
	// symbol registered by many hypothetical users.
	tiers      = 24
	duplicates = 8
	nEvents    = 100_000
)

func main() {
	rt := zstream.NewRuntime(
		zstream.WithShards(4),
		zstream.WithPartitionBy("name"),
	)
	matches := 0
	register := func(src string) {
		q, err := zstream.Compile(src)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := rt.Register(q, zstream.OnMatch(func(*zstream.Match) { matches++ })); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < symbols*tiers; i++ {
		sym := fmt.Sprintf("S%02d", i%symbols)
		th := 90 + float64(i/symbols)*0.25
		register(fmt.Sprintf(`
			PATTERN Dip1; Dip2; Rec
			WHERE Dip1.name = '%s' AND Dip1.price > 45
			  AND Dip2.name = '%s' AND Dip2.price < Dip1.price - 85
			  AND Rec.name = '%s' AND Rec.price > %g
			WITHIN 100 units
			RETURN Dip1, Dip2, Rec`, sym, sym, sym, th))
	}
	// The "house default" alert, registered once per hypothetical user:
	// textually identical, so sharing runs one engine and fans out.
	for u := 0; u < duplicates; u++ {
		for s := 0; s < symbols; s++ {
			sym := fmt.Sprintf("S%02d", s)
			register(fmt.Sprintf(`
				PATTERN Dip1; Dip2; Rec
				WHERE Dip1.name = '%s' AND Dip1.price > 45
				  AND Dip2.name = '%s' AND Dip2.price < Dip1.price - 85
				  AND Rec.name = '%s' AND Rec.price > 97
				WITHIN 100 units
				RETURN Dip1, Dip2, Rec`, sym, sym, sym))
		}
	}

	names := make([]string, symbols)
	weights := make([]float64, symbols)
	for i := range names {
		names[i] = fmt.Sprintf("S%02d", i)
		weights[i] = 1
	}
	events := workload.GenStocks(workload.StockSpec{N: nEvents, Seed: 7, Names: names, Weights: weights})

	start := time.Now()
	for _, ev := range events {
		if err := rt.Ingest(ev); err != nil {
			log.Fatal(err)
		}
	}
	st := rt.Stats()
	if err := rt.Close(); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("queries registered:      %d\n", st.LiveQueries)
	fmt.Printf("physical engine groups:  %d (%d queries aliased onto duplicates)\n",
		st.EngineGroups, st.LiveQueries-st.EngineGroups)
	fmt.Printf("shared subplans:         %d producers, %d consumer groups\n",
		st.SharedSubplans, st.SharedPrefixConsumers)
	fmt.Printf("run:                     %d matches in %v (%.0f events/s)\n",
		matches, elapsed.Round(time.Millisecond), nEvents/elapsed.Seconds())
	if matches == 0 {
		log.Fatal("no matches delivered")
	}
}

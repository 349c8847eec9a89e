// Command zbench regenerates the paper's evaluation (§6): every figure and
// table, plus the design-choice ablations (hash equality, EAT push-down,
// batch size).
//
// Usage:
//
//	zbench                      # run everything at default scale
//	zbench -exp fig8,fig12      # run selected experiments
//	zbench -scale 0.25          # quarter-size workloads
//	zbench -list                # list experiment ids
//
// Output is one text table per experiment, with the paper's expectations
// attached as notes.
// Performance of the multi-query runtime is measured by bench/ (see
// bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

var registry = []struct {
	id  string
	fn  func(experiments.Scale) (*experiments.Result, error)
	doc string
}{
	{"fig8", experiments.Fig8, "Query 4 throughput vs predicate selectivity"},
	{"fig9", experiments.Fig9, "Query 4 1/estimated-cost vs selectivity"},
	{"fig10", experiments.Fig10, "Query 5 throughput vs relative event rate"},
	{"fig11", experiments.Fig11, "Query 5 1/estimated-cost vs relative rate"},
	{"fig12", experiments.Fig12, "Query 6 throughput across regimes, 5 plans"},
	{"fig13", experiments.Fig13, "Query 6 1/estimated-cost across regimes"},
	{"tab3", experiments.Table3, "Query 6 peak memory across plans"},
	{"fig14", experiments.Fig14, "adaptive vs fixed plans on a drifting stream"},
	{"fig15", experiments.Fig15, "Query 7 negation, varying Oracle rate"},
	{"fig16", experiments.Fig16, "Query 7 negation, varying Sun rate"},
	{"tab4", experiments.Table4Exp, "web log class cardinalities"},
	{"fig17", experiments.Fig17, "Query 8 throughput on the web log"},
	{"tab5", experiments.Table5, "Query 8 peak memory"},
	{"opt", experiments.OptimizerTiming, "Algorithm 5 planning time"},
	{"abl-hash", experiments.AblationHash, "ablation: hash equality"},
	{"abl-eat", experiments.AblationEAT, "ablation: EAT push-down"},
	{"abl-batch", experiments.AblationBatchSize, "ablation: batch size"},
}

func main() {
	var (
		expFlag = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		scale   = flag.Float64("scale", 1.0, "workload scale factor")
		list    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range registry {
			fmt.Printf("%-10s %s\n", e.id, e.doc)
		}
		return
	}

	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	ran := 0
	for _, e := range registry {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		r, err := e.fn(experiments.Scale(*scale))
		if err != nil {
			fmt.Fprintf(os.Stderr, "zbench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println(r.Table())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "zbench: no experiment matched %q (use -list)\n", *expFlag)
		os.Exit(1)
	}
}

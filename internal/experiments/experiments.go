package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/nfa"
	"repro/internal/query"
)

// Run is one measured execution of a plan over a workload.
type Run struct {
	Plan       string
	Throughput float64 // events per second
	Matches    uint64
	PeakMemMB  float64
	InvCost    float64 // 1 / estimated cost (cost-model figures)
}

// Series is one sweep point (one x-axis value) with its per-plan runs.
type Series struct {
	Label string
	Runs  []Run
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string
	Title string
	// Columns selects which Run fields the table shows.
	ShowThroughput bool
	ShowMemory     bool
	ShowInvCost    bool
	ShowMatches    bool
	Series         []Series
	Notes          []string
}

// Table renders the result as an aligned text table.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Series) == 0 {
		return b.String()
	}
	// header
	fmt.Fprintf(&b, "%-24s", "")
	for _, run := range r.Series[0].Runs {
		fmt.Fprintf(&b, "%16s", run.Plan)
	}
	b.WriteByte('\n')
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%-24s", s.Label)
		for _, run := range s.Runs {
			switch {
			case r.ShowThroughput:
				fmt.Fprintf(&b, "%14.0f/s", run.Throughput)
			case r.ShowMemory:
				fmt.Fprintf(&b, "%14.2fMB", run.PeakMemMB)
			case r.ShowInvCost:
				fmt.Fprintf(&b, "%16.3g", run.InvCost)
			default:
				fmt.Fprintf(&b, "%16d", run.Matches)
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// benchReps is how many times each measurement runs; the best throughput
// is reported (standard best-of-N practice: small-scale runs are
// sub-second, and scheduler noise only ever slows a run down).
const benchReps = 2

// measureBest runs one measurement pass benchReps times via makePass
// (which returns a closure executing the pass plus a post-pass stats
// reader) and folds the reps into one Run: best throughput, last
// matches/peak-mem (identical across reps — the engines are
// deterministic).
func measureBest(n float64, makePass func() (pass func(), stats func() (matches uint64, peakMemMB float64), err error)) (Run, error) {
	var best Run
	for rep := 0; rep < benchReps; rep++ {
		pass, stats, err := makePass()
		if err != nil {
			return Run{}, err
		}
		start := time.Now()
		pass()
		if tput := n / time.Since(start).Seconds(); tput > best.Throughput {
			best.Throughput = tput
		}
		best.Matches, best.PeakMemMB = stats()
	}
	return best, nil
}

// runEngine measures one tree-plan execution. Workload events carry
// pre-stamped sequence numbers, so the engine shares them without per-event
// copies (the zero-allocation ingest path).
func runEngine(q *query.Query, cfg core.Config, events []*event.Event) (Run, error) {
	return measureBest(float64(len(events)), func() (func(), func() (uint64, float64), error) {
		eng, err := core.NewEngine(q, cfg, nil)
		if err != nil {
			return nil, nil, err
		}
		pass := func() {
			for _, ev := range events {
				eng.Process(ev)
			}
			eng.Flush()
		}
		stats := func() (uint64, float64) {
			st := eng.Snapshot()
			return st.Matches, float64(st.PeakMemBytes) / (1 << 20)
		}
		return pass, stats, nil
	})
}

// runNFA measures the NFA baseline. Matches are materialized through the
// emit callback so output-assembly costs are comparable with the tree
// engine, which always builds composite records.
func runNFA(q *query.Query, events []*event.Event) (Run, error) {
	r, err := measureBest(float64(len(events)), func() (func(), func() (uint64, float64), error) {
		m, err := nfa.New(q)
		if err != nil {
			return nil, nil, err
		}
		m.SetEmit(func([]*event.Event) {})
		pass := func() {
			for _, ev := range events {
				m.Process(ev)
			}
			m.Flush()
		}
		stats := func() (uint64, float64) {
			return m.Matches(), float64(m.PeakMemBytes()) / (1 << 20)
		}
		return pass, stats, nil
	})
	r.Plan = "NFA"
	return r, err
}

// Scale tunes workload sizes: 1.0 is the default zbench size; benchmarks
// use smaller factors to keep go test fast.
type Scale float64

func (s Scale) n(base int) int {
	n := int(float64(base) * float64(s))
	if n < 1000 {
		n = 1000
	}
	return n
}

package main

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/ref"
)

// matchKey renders a match the way ref.Find keys one: per RETURN class the
// constituent events' sequence numbers, classes joined by '|'. The
// workloads' queries have no RETURN clause, so Fields are the classes in
// order.
func matchKey(m *core.Match) string {
	var sb strings.Builder
	for i, f := range m.Fields {
		if i > 0 {
			sb.WriteByte('|')
		}
		for j, e := range f.Events {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatUint(e.Seq, 10))
		}
	}
	return sb.String()
}

// checkResult is the correctness leg's outcome.
type checkResult struct {
	// matches is every match of every query that ends inside the prefix:
	// the count the measured runtime must have delivered for the same
	// events.
	matches int64
	// mismatches counts sampled queries whose sorted match keys differ from
	// the oracle's.
	mismatches int
	// oracleMatches is, per query family, what the oracle found for the
	// family's sampled queries. A family at 0 was compared empty with
	// empty, which verifies nothing.
	oracleMatches []int
}

// vacuous reports whether some family's sampled queries have no match.
func (c checkResult) vacuous() bool { return slices.Contains(c.oracleMatches, 0) }

// checkAgainstOracle runs the first n events of the stream through the
// workload's runtime configuration with the whole query set registered,
// counts every match, and compares the sampled queries' sorted match keys
// with the brute-force oracle's.
func checkAgainstOracle(w *workload, cfg runConfig, g *generator, n int) (checkResult, error) {
	var res checkResult
	queries, err := parseAll(w.queries)
	if err != nil {
		return res, err
	}
	sampled := map[int]bool{}
	for _, family := range w.sample {
		for _, qi := range family {
			sampled[qi] = true
		}
	}
	got := make(map[int][]string, len(sampled))
	rt, walDir, err := newRuntime(w, cfg)
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(walDir)
	for qi, q := range queries {
		// Callbacks all run on the merger goroutine; Close orders them
		// before the reads below.
		emit := func(*core.Match) { res.matches++ }
		if sampled[qi] {
			emit = func(m *core.Match) {
				res.matches++
				got[qi] = append(got[qi], matchKey(m))
			}
		}
		if _, err := rt.Register(q, w.core, emit); err != nil {
			_ = rt.Close()
			return res, fmt.Errorf("%s: register %d: %w", w.name, qi, err)
		}
	}
	g.Rewind()
	events := make([]*event.Event, n)
	for i := range events {
		events[i] = g.Next()
		if err := rt.Ingest(events[i]); err != nil {
			_ = rt.Close()
			return res, err
		}
	}
	if err := rt.Close(); err != nil {
		return res, err
	}
	for _, family := range w.sample {
		found := 0
		for _, qi := range family {
			want, err := oracleKeys(queries[qi], events)
			if err != nil {
				return res, err
			}
			have := got[qi]
			sort.Strings(have)
			if !slices.Equal(have, want) {
				res.mismatches++
			}
			found += len(want)
		}
		res.oracleMatches = append(res.oracleMatches, found)
	}
	return res, nil
}

// oracleKeys is ref.Find over events, made tractable: the oracle enumerates
// every combination of per-class candidates before it checks the window,
// so it is run on overlapping stretches of two windows each (one tick per
// event, so a stretch of 2*WITHIN events) and the keys are united. A match
// spans at most WITHIN ticks, so the stretch that starts at or within one
// window before its first event holds all of it.
func oracleKeys(q *query.Query, events []*event.Event) ([]string, error) {
	w := int(q.Within)
	set := map[string]bool{}
	for lo := 0; lo < len(events); lo += w {
		keys, err := ref.Find(q, events[lo:min(lo+2*w, len(events))])
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

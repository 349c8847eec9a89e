package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/query"
)

// TestFuzzDifferential generates random queries over random streams and
// checks the tree engine (several configurations) against the brute-force
// oracle. It complements the hand-written differential suite with shapes
// no one thought to write down.
func TestFuzzDifferential(t *testing.T) {
	trials := 600
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprint(trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			src := randomQuery(rng)
			q, err := query.Parse(src)
			if err != nil {
				t.Fatalf("generated query %q does not parse: %v", src, err)
			}
			if unanchoredKleene(q.Info) {
				// The planner cannot bound such a closure's group: every
				// configuration must reject it rather than run it.
				for _, cfg := range []Config{{Strategy: StrategyLeftDeep}, {Strategy: StrategyOptimal, Negation: plan.NegTop}} {
					if _, err := NewEngine(q, cfg, nil); !errors.Is(err, plan.ErrKleeneAnchor) {
						t.Fatalf("query %q: NewEngine error %v, want ErrKleeneAnchor", src, err)
					}
				}
				return
			}
			events := genStream(int64(trial*7+3), 45, []string{"A", "B", "C", "D"})
			want := refKeys(t, q, events)

			cfgs := []Config{
				{Strategy: StrategyLeftDeep, BatchSize: 1 + rng.Intn(16)},
				{Strategy: StrategyRightDeep, BatchSize: 1 + rng.Intn(64)},
				{Strategy: StrategyOptimal, UseHash: rng.Intn(2) == 0, BatchSize: 8},
				{Strategy: StrategyOptimal, Adaptive: true, AdaptEvery: 2, BatchSize: 4},
			}
			hasNeg := strings.Contains(src, "!")
			if hasNeg {
				cfgs = append(cfgs, Config{Strategy: StrategyLeftDeep, Negation: plan.NegTop, BatchSize: 8})
			}
			for ci, cfg := range cfgs {
				got := runEngine(t, q, cfg, events)
				if !equalKeys(got, want) {
					t.Fatalf("query %q cfg %d: engine %d vs oracle %d matches\n%s",
						src, ci, len(got), len(want), diff(got, want))
				}
			}
		})
	}
}

// unanchoredKleene reports whether some Kleene term has a neighbouring
// term that is not a plain event class (plan.ErrKleeneAnchor). The
// generator never puts a plain class between two closures, so adjacency
// decides.
func unanchoredKleene(in *query.Info) bool {
	for ti, t := range in.Terms {
		if t.Kind != query.TermKleene {
			continue
		}
		if ti > 0 && in.Terms[ti-1].Kind != query.TermClass {
			return true
		}
		if ti+1 < len(in.Terms) && in.Terms[ti+1].Kind != query.TermClass {
			return true
		}
	}
	return false
}

// randomQuery builds a random query the parser accepts, over classes named
// A..D with name filters, optional negation/Kleene/conj/disj elements and
// random multi-class predicates. Negations are never adjacent (the parser
// rejects `!B;!C`).
func randomQuery(rng *rand.Rand) string {
	names := []string{"A", "B", "C", "D"}
	nclasses := 2 + rng.Intn(3) // 2..4
	aliases := names[:nclasses]

	type element struct {
		text    string
		classes []string
	}
	var elems []element
	i := 0
	prevNeg := false
	for i < nclasses {
		remaining := nclasses - i
		roll := rng.Intn(10)
		neg := false
		switch {
		case roll < 4 || remaining == 1: // plain class
			elems = append(elems, element{aliases[i], []string{aliases[i]}})
			i++
		case roll < 6 && i > 0 && i < nclasses-1 && !prevNeg: // negation in the middle
			elems = append(elems, element{"!" + aliases[i], nil})
			i++
			neg = true
		case roll < 7 && i < nclasses-1 && i > 0: // Kleene between classes
			k := []string{"*", "+", "^2"}[rng.Intn(3)]
			elems = append(elems, element{aliases[i] + k, nil})
			i++
		case roll < 8 && remaining >= 2: // conjunction pair
			elems = append(elems, element{"(" + aliases[i] + "&" + aliases[i+1] + ")",
				[]string{aliases[i], aliases[i+1]}})
			i += 2
		case remaining >= 2: // disjunction pair
			elems = append(elems, element{"(" + aliases[i] + "|" + aliases[i+1] + ")",
				[]string{aliases[i], aliases[i+1]}})
			i += 2
		default:
			elems = append(elems, element{aliases[i], []string{aliases[i]}})
			i++
		}
		prevNeg = neg
	}
	var pat []string
	var positive []string // classes usable in extra predicates
	for _, e := range elems {
		pat = append(pat, e.text)
		positive = append(positive, e.classes...)
	}

	var where []string
	for _, a := range aliases {
		where = append(where, fmt.Sprintf("%s.name = '%s'", a, a))
	}
	// random extra predicates between positive plain classes
	if len(positive) >= 2 && rng.Intn(2) == 0 {
		a, b := positive[rng.Intn(len(positive))], positive[rng.Intn(len(positive))]
		if a != b {
			op := []string{">", "<", ">="}[rng.Intn(3)]
			where = append(where, fmt.Sprintf("%s.price %s %s.price", a, op, b))
		}
	}
	window := 8 + rng.Intn(20)
	return fmt.Sprintf("PATTERN %s WHERE %s WITHIN %d",
		strings.Join(pat, ";"), strings.Join(where, " AND "), window)
}

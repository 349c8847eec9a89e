package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/query"
)

// TestKleenePlacement pins where a Kleene closure may stand: beside plain
// event classes only, or opening or closing the pattern. A closure next to
// a negation, a conjunction, a disjunction or another closure is rejected
// with plan.ErrKleeneAnchor under every strategy and negation placement —
// the planner cannot bound its group there, and running it lost matches —
// while the accepted placements still equal the oracle.
func TestKleenePlacement(t *testing.T) {
	src := func(pat string) string {
		var where []string
		for _, c := range "ABCD" {
			if strings.ContainsRune(pat, c) {
				where = append(where, fmt.Sprintf("%c.name='%c'", c, c))
			}
		}
		return "PATTERN " + pat + " WHERE " + strings.Join(where, " AND ") + " WITHIN 20"
	}
	for _, pat := range []string{
		"A;B+;!C;D",
		"A;B+;(C&D)",
		"A;B^2;C*;D",
		"(A&B);C+;D",
		"A;!B;C*;D",
		"(A|B);C*;D",
		"B*;(C&D)",
		"(A&B);C+",
	} {
		q := query.MustParse(src(pat))
		for _, cfg := range []Config{
			{Strategy: StrategyOptimal},
			{Strategy: StrategyLeftDeep, Negation: plan.NegTop},
			{Strategy: StrategyRightDeep, UseHash: true},
		} {
			if _, err := NewEngine(q, cfg, nil); !errors.Is(err, plan.ErrKleeneAnchor) {
				t.Errorf("%s (%+v): NewEngine error %v, want ErrKleeneAnchor", pat, cfg, err)
			}
		}
	}
	names := []string{"A", "B", "C", "D"}
	for i, pat := range []string{"A;B*;C", "A;B+", "B*;C", "A;B;C;D+", "A;B^2;C;D", "A;B;C+;D"} {
		t.Run(pat, func(t *testing.T) {
			differential(t, src(pat), int64(40+i), 60, names)
		})
	}
}

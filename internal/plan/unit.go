package plan

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/query"
)

// UnitKind classifies a planning unit.
type UnitKind int

const (
	// UnitSimple is a single event class.
	UnitSimple UnitKind = iota
	// UnitConj is a conjunction of classes (evaluated by CONJ nodes).
	UnitConj
	// UnitDisj is a disjunction of classes (evaluated by a DISJ merge).
	UnitDisj
	// UnitKSeq is a Kleene closure fused with its start/end anchor classes.
	UnitKSeq
	// UnitNSeqLeft is a negation fused with its following class:
	// NSEQ(!B, C) (Algorithm 2).
	UnitNSeqLeft
	// UnitNSeqRight is a trailing negation fused with its preceding class:
	// NSEQ(B, !C).
	UnitNSeqRight
)

// String implements fmt.Stringer.
func (k UnitKind) String() string {
	return [...]string{"class", "conj", "disj", "kseq", "nseq<", "nseq>"}[k]
}

// Unit is one leaf block of operator ordering. Units appear in temporal
// order; sequence operators may only combine contiguous runs of units.
type Unit struct {
	Kind UnitKind
	// Classes are all classes the unit binds, in temporal order,
	// including negated ones.
	Classes []int

	// Negation fields (UnitNSeqLeft / UnitNSeqRight).
	NegClasses []int
	Anchor     int // the non-negated class of the block

	// Kleene fields (UnitKSeq). StartClass/EndClass are -1 when the
	// closure opens/closes the pattern (see ErrKleeneAnchor).
	StartClass int
	MidClass   int
	EndClass   int
	Closure    query.ClosureKind
	Count      int
}

// NonNegClasses returns the unit's classes excluding negated ones.
func (u *Unit) NonNegClasses() []int {
	if len(u.NegClasses) == 0 {
		return u.Classes
	}
	neg := map[int]bool{}
	for _, c := range u.NegClasses {
		neg[c] = true
	}
	var out []int
	for _, c := range u.Classes {
		if !neg[c] {
			out = append(out, c)
		}
	}
	return out
}

// String implements fmt.Stringer.
func (u *Unit) String() string {
	return fmt.Sprintf("%s%v", u.Kind, u.Classes)
}

// NegPlacement selects how negation terms are evaluated.
type NegPlacement int

const (
	// NegAuto lets the planner push negation down when eligible.
	NegAuto NegPlacement = iota
	// NegPushdown forces NSEQ; ineligible patterns are rejected.
	NegPushdown
	// NegTop forces the negation-on-top filter.
	NegTop
)

// TopNeg describes a negation term deferred to the top-of-plan filter.
type TopNeg struct {
	Term       int
	NegClasses []int
	Prev, Next []int // non-negated classes before/after the term
}

// ErrKleeneAnchor rejects a Kleene closure with a neighbour it cannot
// anchor to: KSEQ bounds the closure's group by the plain event classes
// right before and after it, so each neighbouring term must be one, and
// not one another closure already took as its anchor. A closure may also
// open or close the pattern.
var ErrKleeneAnchor = errors.New("plan: a Kleene closure's neighbours must be plain event classes")

// Units derives the planning units for an analyzed query.
// topNegs lists negation terms that could not (or were configured not to)
// be pushed down and must be applied by a NEG filter above the root.
func Units(in *query.Info, placement NegPlacement) (units []*Unit, topNegs []TopNeg, err error) {
	// First pass: decide which negation terms are pushed down.
	type negDecision struct {
		push  bool
		left  bool // true: fuse with following term (NSEQ-left)
		fused int  // term index of the anchor
	}
	negs := map[int]negDecision{}
	for ti, t := range in.Terms {
		if t.Kind != query.TermNeg {
			continue
		}
		eligible, left, anchor := negPushdownTarget(in, ti)
		switch placement {
		case NegTop:
			negs[ti] = negDecision{push: false}
		case NegPushdown:
			if !eligible {
				return nil, nil, fmt.Errorf("plan: negation term %d cannot be pushed down (predicates span multiple non-negation classes or no adjacent plain class)", ti)
			}
			negs[ti] = negDecision{push: true, left: left, fused: anchor}
		default:
			negs[ti] = negDecision{push: eligible, left: left, fused: anchor}
		}
	}

	// Second pass: build units, fusing pushed-down negations and Kleene
	// closures with their anchor classes.
	fusedInto := map[int]int{} // term index -> unit index it was fused into
	for ti := 0; ti < len(in.Terms); ti++ {
		t := in.Terms[ti]
		switch t.Kind {
		case query.TermNeg:
			d := negs[ti]
			if !d.push {
				topNegs = append(topNegs, TopNeg{
					Term:       ti,
					NegClasses: t.Classes,
					Prev:       classesBefore(in, ti),
					Next:       classesAfter(in, ti),
				})
				continue
			}
			if d.left {
				// fuse with the FOLLOWING class term
				anchor := in.Terms[d.fused]
				units = append(units, &Unit{
					Kind:       UnitNSeqLeft,
					Classes:    append(append([]int{}, t.Classes...), anchor.Classes[0]),
					NegClasses: t.Classes,
					Anchor:     anchor.Classes[0],
				})
				fusedInto[d.fused] = len(units) - 1
				ti = d.fused // skip the anchor term
			} else {
				// trailing negation: fuse with the PRECEDING unit, which
				// must be the last unit built and a simple class
				last := len(units) - 1
				if last < 0 || units[last].Kind != UnitSimple {
					return nil, nil, fmt.Errorf("plan: trailing negation needs a preceding plain class")
				}
				prev := units[last]
				units[last] = &Unit{
					Kind:       UnitNSeqRight,
					Classes:    append(append([]int{}, prev.Classes...), t.Classes...),
					NegClasses: t.Classes,
					Anchor:     prev.Classes[0],
				}
			}
		case query.TermClass:
			if _, fused := fusedInto[ti]; fused {
				continue
			}
			units = append(units, &Unit{Kind: UnitSimple, Classes: t.Classes})
		case query.TermConj:
			units = append(units, &Unit{Kind: UnitConj, Classes: t.Classes})
		case query.TermDisj:
			units = append(units, &Unit{Kind: UnitDisj, Classes: t.Classes})
		case query.TermKleene:
			u := &Unit{
				Kind:       UnitKSeq,
				MidClass:   t.Classes[0],
				StartClass: -1,
				EndClass:   -1,
				Closure:    t.Closure,
				Count:      t.Count,
			}
			// fuse the preceding simple class term as the start anchor
			if n := len(units); n > 0 && units[n-1].Kind == UnitSimple && in.Terms[ti-1].Kind == query.TermClass {
				u.StartClass = units[n-1].Classes[0]
				units = units[:n-1]
			}
			// fuse the following simple class term as the end anchor
			if ti+1 < len(in.Terms) && in.Terms[ti+1].Kind == query.TermClass {
				u.EndClass = in.Terms[ti+1].Classes[0]
				fusedInto[ti+1] = len(units)
			}
			if (ti > 0 && u.StartClass < 0) || (ti+1 < len(in.Terms) && u.EndClass < 0) {
				return nil, nil, fmt.Errorf("%w (term %d)", ErrKleeneAnchor, ti)
			}
			var cls []int
			if u.StartClass >= 0 {
				cls = append(cls, u.StartClass)
			}
			cls = append(cls, u.MidClass)
			if u.EndClass >= 0 {
				cls = append(cls, u.EndClass)
			}
			u.Classes = cls
			units = append(units, u)
		}
	}
	if len(units) == 0 {
		return nil, nil, fmt.Errorf("plan: pattern has no positive event classes")
	}
	return units, topNegs, nil
}

// negPushdownTarget decides whether the negation term ti is NSEQ-eligible
// and which neighbor it fuses with. A negation can be pushed down when its
// multi-class predicates reference at most one non-negation class (§4.4.2)
// and that class is an adjacent plain class. Predicates with aggregates are
// never eligible.
func negPushdownTarget(in *query.Info, ti int) (eligible, left bool, anchorTerm int) {
	t := in.Terms[ti]
	negSet := map[int]bool{}
	for _, c := range t.Classes {
		negSet[c] = true
	}
	// collect the non-negation classes the negation's predicates touch
	refs := map[int]bool{}
	for _, p := range in.Preds {
		touchesNeg := false
		for _, c := range p.Classes {
			if negSet[c] {
				touchesNeg = true
			}
		}
		if !touchesNeg {
			continue
		}
		if p.HasAgg {
			return false, false, 0
		}
		for _, c := range p.Classes {
			if !negSet[c] {
				refs[c] = true
			}
		}
	}
	if len(refs) > 1 {
		return false, false, 0
	}

	followOK := ti+1 < len(in.Terms) && in.Terms[ti+1].Kind == query.TermClass
	precedeOK := ti == len(in.Terms)-1 && ti > 0 && in.Terms[ti-1].Kind == query.TermClass

	if len(refs) == 1 {
		var ref int
		for c := range refs {
			ref = c
		}
		if followOK && in.Terms[ti+1].Classes[0] == ref {
			return true, true, ti + 1
		}
		if precedeOK && in.Terms[ti-1].Classes[0] == ref {
			return true, false, ti - 1
		}
		return false, false, 0
	}
	// unconstrained negation: prefer the following class (Algorithm 2),
	// fall back to trailing form
	if followOK {
		return true, true, ti + 1
	}
	if precedeOK {
		return true, false, ti - 1
	}
	return false, false, 0
}

func classesBefore(in *query.Info, ti int) []int {
	var out []int
	for i := 0; i < ti; i++ {
		if in.Terms[i].Kind != query.TermNeg {
			out = append(out, in.Terms[i].Classes...)
		}
	}
	return out
}

func classesAfter(in *query.Info, ti int) []int {
	var out []int
	for i := ti + 1; i < len(in.Terms); i++ {
		if in.Terms[i].Kind != query.TermNeg {
			out = append(out, in.Terms[i].Classes...)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// shapes
// ---------------------------------------------------------------------------

// Shape is a binary tree over unit indexes. A leaf has Unit >= 0 and nil
// children; an internal node has Unit == -1. The in-order traversal of a
// valid shape visits units 0..n-1 consecutively (sequences only combine
// contiguous, ordered runs).
type Shape struct {
	Unit int
	L, R *Shape
}

// ShapeLeaf returns a leaf shape for unit i.
func ShapeLeaf(i int) *Shape { return &Shape{Unit: i} }

// Join combines two shapes with a sequence operator.
func Join(l, r *Shape) *Shape { return &Shape{Unit: -1, L: l, R: r} }

// LeftDeep builds ((0;1);2);... over n units.
func LeftDeep(n int) *Shape {
	s := ShapeLeaf(0)
	for i := 1; i < n; i++ {
		s = Join(s, ShapeLeaf(i))
	}
	return s
}

// RightDeep builds 0;(1;(2;...)) over n units.
func RightDeep(n int) *Shape {
	s := ShapeLeaf(n - 1)
	for i := n - 2; i >= 0; i-- {
		s = Join(ShapeLeaf(i), s)
	}
	return s
}

// Leaves returns the unit indexes in in-order.
func (s *Shape) Leaves() []int {
	if s == nil {
		return nil
	}
	if s.Unit >= 0 {
		return []int{s.Unit}
	}
	return append(s.L.Leaves(), s.R.Leaves()...)
}

// Validate checks that the shape covers exactly units 0..n-1 in order.
func (s *Shape) Validate(n int) error {
	ls := s.Leaves()
	if len(ls) != n {
		return fmt.Errorf("plan: shape covers %d units, want %d", len(ls), n)
	}
	for i, u := range ls {
		if u != i {
			return fmt.Errorf("plan: shape leaf %d is unit %d; units must appear in temporal order", i, u)
		}
	}
	return nil
}

// String implements fmt.Stringer.
func (s *Shape) String() string {
	if s.Unit >= 0 {
		return fmt.Sprint(s.Unit)
	}
	return "(" + s.L.String() + " " + s.R.String() + ")"
}

// ParseShape parses the String() form: "(((0 1) 2) 3)".
func ParseShape(src string) (*Shape, error) {
	toks := strings.Fields(strings.ReplaceAll(strings.ReplaceAll(src, "(", " ( "), ")", " ) "))
	pos := 0
	var parse func() (*Shape, error)
	parse = func() (*Shape, error) {
		if pos >= len(toks) {
			return nil, fmt.Errorf("plan: unexpected end of shape")
		}
		tok := toks[pos]
		pos++
		if tok == "(" {
			l, err := parse()
			if err != nil {
				return nil, err
			}
			r, err := parse()
			if err != nil {
				return nil, err
			}
			if pos >= len(toks) || toks[pos] != ")" {
				return nil, fmt.Errorf("plan: expected ')' in shape")
			}
			pos++
			return Join(l, r), nil
		}
		var u int
		if _, err := fmt.Sscanf(tok, "%d", &u); err != nil {
			return nil, fmt.Errorf("plan: bad shape token %q", tok)
		}
		return ShapeLeaf(u), nil
	}
	s, err := parse()
	if err != nil {
		return nil, err
	}
	if pos != len(toks) {
		return nil, fmt.Errorf("plan: trailing shape tokens")
	}
	return s, nil
}

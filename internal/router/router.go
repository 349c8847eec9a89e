package router

import (
	"math/bits"
	"slices"

	"repro/internal/event"
	"repro/internal/expr"
	"repro/internal/query"
)

// MaskAll marks a delivery whose admission was NOT proved per class: the
// receiving engine must evaluate its leaf filters as usual (fallback
// subscriptions).
const MaskAll = ^uint64(0)

// Delivery is one admitted event for one subscriber with the set of
// admitted classes (bit i ⇔ class index i), or MaskAll for fallbacks.
type Delivery struct {
	Ev   *event.Event
	Mask uint64
}

// SubBatch is one subscriber's mini-batch for the routed event batch.
// Events appear in input order. The slice is owned by the router and valid
// only until the next Route call.
type SubBatch struct {
	ID      int64
	Payload any
	Events  []Delivery
}

// Stats counts router work since creation.
type Stats struct {
	Events        uint64 // events routed
	Deliveries    uint64 // (subscriber, event) pairs yielded
	ResidualEvals uint64 // deduped residual predicate evaluations
	RangeProbes   uint64 // sorted-threshold table stabs (binary searches)
}

// eqAtom is one `attr = const` admission atom, by attribute name
// (resolved to a value position per schema at table-compile time).
type eqAtom struct {
	attr string
	val  event.Value
	text string // predicate source text, for EXPLAIN
}

// rangeAtom is one `attr OP const` admission atom (OP in <, <=, >, >=),
// normalized attribute-on-the-left by query.RangeAtom. Range atoms compile
// into per-schema sorted-threshold tables: one binary search per event per
// (attr, direction) replaces one interned-residual evaluation per distinct
// constant, so a family of thousands of threshold-alert queries costs
// O(log thresholds + admitted) instead of O(distinct thresholds).
type rangeAtom struct {
	attr string
	op   query.CmpOp // CmpLt/CmpLte/CmpGt/CmpGte, attr on the left
	th   float64
	text string // predicate source text, for EXPLAIN
}

// classAdm is the compiled admission condition of one query class: all eq
// atoms, all range atoms and all residual atoms must hold.
type classAdm struct {
	bit   uint64
	eqs   []eqAtom
	rngs  []rangeAtom
	resid []int // indices into Router.atoms
}

// sub is one registered query.
type sub struct {
	id      int64
	payload any
	classes []classAdm
	// alwaysMask covers classes with no single-class predicates: they
	// admit every event unconditionally.
	alwaysMask uint64
	// fallback subscriptions always receive every event with MaskAll
	// (>64 classes, or predicate compilation failed).
	fallback bool
	// nclasses is the query's class count (admitted's length for indexed
	// subscriptions).
	nclasses int
	// admitted counts per-class admissions since Add (EXPLAIN's
	// unconditioned view); nil for fallback subscriptions, whose
	// deliveries prove nothing per class.
	admitted []uint64
	// baseEvents is the router's event counter at Add time, so
	// events-seen-since-subscribe = stats.Events - baseEvents.
	baseEvents uint64

	// per-event accumulation scratch (epoch-stamped).
	mask  uint64
	epoch uint64
	batch []Delivery
}

// atom is one deduplicated residual predicate with a per-event memo.
type atom struct {
	fp    string
	text  string // predicate source text, for EXPLAIN
	pred  expr.Predicate
	env   expr.EventEnv // Class bound to the introducing query's class
	refs  int
	epoch uint64
	val   bool
}

// entry is one (subscriber, class) admission check in a compiled schema
// table: the remaining eq and range atoms (beyond the dispatch atom, if
// any) plus the residual atom set.
type entry struct {
	s        *sub
	bit      uint64
	extra    []resolvedEq
	extraRng []resolvedRange
	resid    []int
}

type resolvedEq struct {
	idx int // value position in the schema
	val event.Value
}

// resolvedRange is an entry-level range check: the second side of a
// BETWEEN-shaped conjunction, or a range atom on a class whose dispatch is
// served by an eq atom. One float compare per candidate entry.
type resolvedRange struct {
	idx int // value position in the schema
	op  query.CmpOp
	th  float64
}

// dispatchGroup hash-dispatches on one attribute position: the event's
// value at idx selects the entries to check.
type dispatchGroup struct {
	idx   int
	byVal map[event.Value][]entry
}

// rangeEntry is one subscriber entry keyed by its dispatch threshold in a
// sorted-threshold list. incl marks an inclusive bound (<= / >=): an event
// whose value equals th admits the entry only when incl is set.
type rangeEntry struct {
	th   float64
	incl bool
	e    entry
}

// rangeGroup range-dispatches on one attribute position: gt holds entries
// whose dispatch atom is `attr > th` / `attr >= th`, lt entries with
// `attr < th` / `attr <= th`, each sorted ascending by threshold. An event
// value v stabs each side with one binary search: gt admits the prefix of
// thresholds below v, lt the suffix above it, with equal thresholds
// filtered by incl. Enumerating the admitted segment is O(answers) — work
// any dispatch scheme pays — while rejected thresholds cost nothing.
type rangeGroup struct {
	idx int
	gt  []rangeEntry
	lt  []rangeEntry
}

// schemaTable is the index specialized to one event schema. Tables are
// compiled lazily on first sight of a schema and invalidated by
// Add/Remove.
type schemaTable struct {
	groups []dispatchGroup
	ranges []rangeGroup
	scan   []entry // residual-only classes: checked for every event
}

// Router indexes subscriptions and classifies event batches. Not safe for
// concurrent use; each shard worker owns one.
type Router struct {
	subs []*sub
	byID map[int64]*sub
	// flat is the per-event O(Q) remainder: fallback subscriptions and
	// subscriptions with an always-admitted class. Everything else is
	// reached only through dispatch/scan entries.
	flat    []*sub
	atoms   []*atom
	atomBy  map[string]int
	freeIDs []int // recycled atom slots
	tables  map[*event.Schema]*schemaTable
	// lastSchema/lastTable cache the previous event's table: consecutive
	// events almost always share a schema, turning the per-event map
	// probe into a pointer compare.
	lastSchema *event.Schema
	lastTable  *schemaTable
	epoch      uint64
	stats      Stats
	// noRange forces range atoms back onto the interned-residual path (the
	// generation-1 router). Kept for differential testing: generation-2
	// dispatch is semantics-preserving, so production routers leave it off.
	noRange bool

	// reused scratch: subs admitted for the current event / batch, and the
	// returned batch headers.
	touched []*sub
	active  []*sub
	out     []SubBatch
}

// New returns an empty router.
func New() *Router {
	return &Router{
		byID:   map[int64]*sub{},
		atomBy: map[string]int{},
		tables: map[*event.Schema]*schemaTable{},
	}
}

// DisableRangeDispatch reverts the router to generation-1 behavior: range
// atoms are interned as residual predicates and evaluated once per distinct
// constant per event, instead of compiling into sorted-threshold tables.
// Must be called before the first Add; exists for differential testing.
func (r *Router) DisableRangeDispatch() { r.noRange = true }

// Add registers a query's admission predicates under id. The payload rides
// along in SubBatch for the caller's dispatch (e.g. the engine). Existing
// schema tables are updated incrementally; the subscription takes effect
// for the next Route call, which — with the runtime's queue-ordered
// registration ops — is an exact stream position.
//
// A nil info subscribes without predicates: a fallback subscription that
// receives every event with MaskAll (deliver-to-all).
func (r *Router) Add(id int64, info *query.Info, payload any) {
	s := &sub{id: id, payload: payload, baseEvents: r.stats.Events, fallback: info == nil}
	if info != nil {
		// Class bits are indexed by ClassInfo.Idx, which suffix-only infos
		// (shared-prefix consumers) retain from the full query, so sizing
		// must follow the max index, not the class count.
		for _, ci := range info.Classes {
			if ci.Idx+1 > s.nclasses {
				s.nclasses = ci.Idx + 1
			}
		}
		if s.nclasses > 64 {
			s.fallback = true
		} else if classes, always, ok := r.compileClasses(info); ok {
			s.classes, s.alwaysMask = classes, always
			s.admitted = make([]uint64, s.nclasses)
		} else {
			s.fallback = true // predicate compilation failed
		}
	}
	r.subs = append(r.subs, s)
	r.byID[id] = s
	if s.fallback || s.alwaysMask != 0 {
		r.flat = append(r.flat, s)
	}
	if !s.fallback {
		for sc, t := range r.tables {
			r.addToTable(t, s, sc)
		}
	}
}

// Remove drops the subscription and releases its residual atoms. Compiled
// tables are rebuilt lazily from the remaining subscriptions.
func (r *Router) Remove(id int64) {
	s, ok := r.byID[id]
	if !ok {
		return
	}
	delete(r.byID, id)
	for i, x := range r.subs {
		if x == s {
			r.subs = append(r.subs[:i], r.subs[i+1:]...)
			break
		}
	}
	for i, x := range r.flat {
		if x == s {
			r.flat = append(r.flat[:i], r.flat[i+1:]...)
			break
		}
	}
	for _, ca := range s.classes {
		for _, ai := range ca.resid {
			r.releaseAtom(ai)
		}
	}
	// Entry slices hold *sub pointers; dropping the tables is simpler and
	// safer than surgically removing entries, and unregistration is rare
	// relative to per-event routing.
	clear(r.tables)
	r.lastSchema, r.lastTable = nil, nil
}

// compileClasses builds the admission conditions for every class, mirroring
// exactly the predicate set plan.Build pushes into leaf filters
// (single-class, non-aggregate).
func (r *Router) compileClasses(info *query.Info) (classes []classAdm, always uint64, ok bool) {
	for _, ci := range info.Classes {
		ca := classAdm{bit: 1 << uint(ci.Idx)}
		for _, pi := range info.Preds {
			if !pi.Single() || pi.Classes[0] != ci.Idx || pi.HasAgg {
				continue
			}
			if attr, lit, ok := query.EqualityAtom(pi.Cmp); ok && attr != expr.TsAttr {
				ca.eqs = append(ca.eqs, eqAtom{attr: attr, val: litValue(lit), text: pi.Cmp.String()})
				continue
			}
			// ts is a pseudo-attribute, not a schema value position, so ts
			// comparisons stay residual (same rule as eq atoms above).
			if attr, op, th, ok := query.RangeAtom(pi.Cmp); ok && attr != expr.TsAttr && !r.noRange {
				ca.rngs = append(ca.rngs, rangeAtom{attr: attr, op: op, th: th, text: pi.Cmp.String()})
				continue
			}
			ai, ok := r.atomFor(pi.Cmp, ci.Idx)
			if !ok {
				// roll back the refs this compilation took
				for _, c := range classes {
					for _, prev := range c.resid {
						r.releaseAtom(prev)
					}
				}
				for _, prev := range ca.resid {
					r.releaseAtom(prev)
				}
				return nil, 0, false
			}
			ca.resid = append(ca.resid, ai)
		}
		if len(ca.eqs) == 0 && len(ca.rngs) == 0 && len(ca.resid) == 0 {
			always |= ca.bit
			continue
		}
		classes = append(classes, ca)
	}
	return classes, always, true
}

// releaseAtom decrements an atom's refcount, recycling its slot at zero.
func (r *Router) releaseAtom(i int) {
	a := r.atoms[i]
	a.refs--
	if a.refs == 0 {
		delete(r.atomBy, a.fp)
		r.atoms[i] = &atom{} // dead slot
		r.freeIDs = append(r.freeIDs, i)
	}
}

// atomFor interns a residual predicate by canonical fingerprint.
func (r *Router) atomFor(c *query.Cmp, class int) (int, bool) {
	fp, canonical := query.FingerprintCmp(c)
	if !canonical {
		// An AST node fingerprinting doesn't know: deduplicating on a
		// lossy fingerprint could conflate distinct predicates, so the
		// whole subscription falls back to unproven delivery.
		return 0, false
	}
	if i, ok := r.atomBy[fp]; ok {
		r.atoms[i].refs++
		return i, true
	}
	pred, err := expr.CompilePred(c)
	if err != nil {
		return 0, false
	}
	a := &atom{fp: fp, text: c.String(), pred: pred, env: expr.EventEnv{Class: class}, refs: 1}
	var i int
	if n := len(r.freeIDs); n > 0 {
		i = r.freeIDs[n-1]
		r.freeIDs = r.freeIDs[:n-1]
		r.atoms[i] = a
	} else {
		i = len(r.atoms)
		r.atoms = append(r.atoms, a)
	}
	r.atomBy[fp] = i
	return i, true
}

func litValue(lit query.Expr) event.Value {
	switch x := lit.(type) {
	case *query.NumLit:
		return event.Float(x.V)
	case *query.StrLit:
		return event.Str(x.V)
	}
	return event.Value{}
}

// maxCachedTables bounds the schema-table cache. Tables are keyed by
// *event.Schema identity; a well-behaved source shares one Schema per
// stream, but nothing stops a feed adapter from constructing a fresh
// Schema per message, which would otherwise grow the map by one compiled
// table per event. Past the bound the cache is dropped wholesale: a
// stable working set stays fast, a pathological schema-churn feed
// degrades to per-event compilation (≈ naive fan-out cost) with flat
// memory instead of an OOM.
const maxCachedTables = 64

// tableFor returns (compiling if needed) the index for one schema.
func (r *Router) tableFor(sc *event.Schema) *schemaTable {
	if sc == r.lastSchema {
		return r.lastTable
	}
	t, ok := r.tables[sc]
	if !ok {
		if len(r.tables) >= maxCachedTables {
			clear(r.tables)
		}
		t = &schemaTable{}
		for _, s := range r.subs {
			if !s.fallback {
				r.addToTable(t, s, sc)
			}
		}
		r.tables[sc] = t
	}
	r.lastSchema, r.lastTable = sc, t
	return t
}

// addToTable integrates one subscription into a schema table. A class with
// an eq or range atom whose attribute the schema lacks can never admit an
// event of that schema (a null value satisfies no comparison) and
// contributes nothing. Dispatch preference per class: the first eq atom
// (hash lookup) when one exists, else the first range atom (sorted-
// threshold stab); every remaining atom of either kind becomes an O(1)
// entry-level check — a BETWEEN-shaped `attr > a AND attr < b` pair
// dispatches on the lower bound and checks the upper per candidate.
func (r *Router) addToTable(t *schemaTable, s *sub, sc *event.Schema) {
	for i := range s.classes {
		ca := &s.classes[i]
		if len(ca.eqs) == 0 && len(ca.rngs) == 0 {
			t.scan = append(t.scan, entry{s: s, bit: ca.bit, resid: ca.resid})
			continue
		}
		e := entry{s: s, bit: ca.bit, resid: ca.resid}
		dispatchIdx, reachable := -1, true
		var dispatchVal event.Value
		for _, eq := range ca.eqs {
			idx := sc.Index(eq.attr)
			if idx < 0 {
				reachable = false
				break
			}
			if dispatchIdx < 0 {
				dispatchIdx, dispatchVal = idx, eq.val
				continue
			}
			e.extra = append(e.extra, resolvedEq{idx: idx, val: eq.val})
		}
		if !reachable {
			continue
		}
		rngDispatch := -1 // index into ca.rngs of the range dispatch atom
		var rngDispatchIdx int
		for ri, rng := range ca.rngs {
			idx := sc.Index(rng.attr)
			if idx < 0 {
				reachable = false
				break
			}
			if dispatchIdx < 0 && rngDispatch < 0 {
				rngDispatch, rngDispatchIdx = ri, idx
				continue
			}
			e.extraRng = append(e.extraRng, resolvedRange{idx: idx, op: rng.op, th: rng.th})
		}
		if !reachable {
			continue
		}
		if dispatchIdx >= 0 {
			g := t.group(dispatchIdx)
			g.byVal[dispatchVal] = append(g.byVal[dispatchVal], e)
			continue
		}
		rng := ca.rngs[rngDispatch]
		g := t.rangeGroup(rngDispatchIdx)
		re := rangeEntry{th: rng.th, incl: rng.op == query.CmpLte || rng.op == query.CmpGte, e: e}
		if rng.op == query.CmpGt || rng.op == query.CmpGte {
			g.gt = insertSorted(g.gt, re)
		} else {
			g.lt = insertSorted(g.lt, re)
		}
	}
}

// insertSorted places re into a threshold-ascending list, keeping
// registration order among equal thresholds (append semantics) so delivery
// sets stay registration-stable under churn.
func insertSorted(list []rangeEntry, re rangeEntry) []rangeEntry {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].th <= re.th {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return slices.Insert(list, lo, re)
}

func (t *schemaTable) group(idx int) *dispatchGroup {
	for i := range t.groups {
		if t.groups[i].idx == idx {
			return &t.groups[i]
		}
	}
	t.groups = append(t.groups, dispatchGroup{idx: idx, byVal: map[event.Value][]entry{}})
	return &t.groups[len(t.groups)-1]
}

func (t *schemaTable) rangeGroup(idx int) *rangeGroup {
	for i := range t.ranges {
		if t.ranges[i].idx == idx {
			return &t.ranges[i]
		}
	}
	t.ranges = append(t.ranges, rangeGroup{idx: idx})
	return &t.ranges[len(t.ranges)-1]
}

// Route classifies a batch of events and returns one mini-batch per
// subscriber that admits at least one of them (registration-stable order
// of first admission). All returned slices are router-owned scratch,
// reused by the next Route call; steady-state routing allocates nothing.
func (r *Router) Route(events []*event.Event) []SubBatch {
	// Scratch is always cleared before truncation, so backing-array tails
	// never retain stale pointers: without this, a query whose batch once
	// grew large would pin long-evicted events (and, via Payload, even
	// unregistered engines) for as long as the router lives.
	for _, s := range r.active {
		clear(s.batch)
		s.batch = s.batch[:0]
	}
	clear(r.active)
	r.active = r.active[:0]
	clear(r.out)
	r.out = r.out[:0]

	for _, ev := range events {
		r.epoch++
		t := r.tableFor(ev.Schema)
		for _, s := range r.flat {
			if s.fallback {
				r.admit(s, MaskAll)
			} else {
				r.admit(s, s.alwaysMask)
			}
		}
		for gi := range t.groups {
			g := &t.groups[gi]
			if es, ok := g.byVal[ev.Vals[g.idx]]; ok {
				for i := range es {
					r.tryEntry(&es[i], ev)
				}
			}
		}
		for gi := range t.ranges {
			r.stabRange(&t.ranges[gi], ev)
		}
		for i := range t.scan {
			r.tryEntry(&t.scan[i], ev)
		}
		for _, s := range r.touched {
			if len(s.batch) == 0 {
				r.active = append(r.active, s)
			}
			s.batch = append(s.batch, Delivery{Ev: ev, Mask: s.mask})
			if !s.fallback {
				for m := s.mask; m != 0; m &= m - 1 {
					s.admitted[bits.TrailingZeros64(m)]++
				}
			}
			r.stats.Deliveries++
		}
		clear(r.touched)
		r.touched = r.touched[:0]
		r.stats.Events++
	}

	for _, s := range r.active {
		r.out = append(r.out, SubBatch{ID: s.id, Payload: s.payload, Events: s.batch})
	}
	return r.out
}

// admit accumulates class bits for the current event, tracking first touch.
func (r *Router) admit(s *sub, bits uint64) {
	if s.epoch != r.epoch {
		s.epoch = r.epoch
		s.mask = 0
		r.touched = append(r.touched, s)
	}
	s.mask |= bits
}

// stabRange admits the entries of one sorted-threshold group for the
// current event: one binary search per populated direction, then a linear
// walk over exactly the admitted segment. Non-numeric (or null) values
// satisfy no comparison and skip the group outright.
func (r *Router) stabRange(g *rangeGroup, ev *event.Event) {
	v := ev.Vals[g.idx]
	if v.Kind != event.KindFloat {
		return
	}
	f := v.F
	if n := len(g.gt); n > 0 {
		// First threshold >= f: everything left of it is strictly below f.
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if g.gt[mid].th < f {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for i := 0; i < lo; i++ {
			r.tryEntry(&g.gt[i].e, ev)
		}
		// Equal thresholds admit only inclusive (>=) entries.
		for i := lo; i < n && g.gt[i].th == f; i++ {
			if g.gt[i].incl {
				r.tryEntry(&g.gt[i].e, ev)
			}
		}
		r.stats.RangeProbes++
	}
	if n := len(g.lt); n > 0 {
		// First threshold > f: everything right of it is strictly above f.
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if g.lt[mid].th <= f {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for i := lo; i < n; i++ {
			r.tryEntry(&g.lt[i].e, ev)
		}
		// Equal thresholds admit only inclusive (<=) entries.
		for i := lo - 1; i >= 0 && g.lt[i].th == f; i-- {
			if g.lt[i].incl {
				r.tryEntry(&g.lt[i].e, ev)
			}
		}
		r.stats.RangeProbes++
	}
}

// tryEntry checks one (subscriber, class) condition against the event.
func (r *Router) tryEntry(e *entry, ev *event.Event) {
	for _, x := range e.extra {
		if !ev.Vals[x.idx].Equal(x.val) {
			return
		}
	}
	for _, x := range e.extraRng {
		v := ev.Vals[x.idx]
		if v.Kind != event.KindFloat || !cmpFloat(v.F, x.op, x.th) {
			return
		}
	}
	for _, ai := range e.resid {
		if !r.evalAtom(ai, ev) {
			return
		}
	}
	r.admit(e.s, e.bit)
}

// cmpFloat applies one normalized range operator. It mirrors
// expr.CompilePred's numeric comparison exactly: the admission a threshold
// table proves must equal what the engine's own leaf filter would compute.
func cmpFloat(v float64, op query.CmpOp, th float64) bool {
	switch op {
	case query.CmpLt:
		return v < th
	case query.CmpLte:
		return v <= th
	case query.CmpGt:
		return v > th
	default:
		return v >= th
	}
}

// evalAtom evaluates a residual predicate at most once per event.
func (r *Router) evalAtom(i int, ev *event.Event) bool {
	a := r.atoms[i]
	if a.epoch != r.epoch {
		a.epoch = r.epoch
		a.env.E = ev
		a.val = a.pred(&a.env)
		a.env.E = nil
		r.stats.ResidualEvals++
	}
	return a.val
}

// ClassAdmission is the EXPLAIN view of one class's compiled admission
// condition and its live counter.
type ClassAdmission struct {
	// Class is the class index.
	Class int
	// EqAtoms are the hash-dispatchable `attr = const` predicate texts.
	EqAtoms []string
	// RangeAtoms are the `attr OP const` predicate texts served by
	// sorted-threshold dispatch (or entry-level float compares).
	RangeAtoms []string
	// Residual are the interned predicate texts evaluated per event.
	Residual []string
	// Always reports an unconditional class (no single-class predicates).
	Always bool
	// Admitted counts events this class admitted since subscription.
	Admitted uint64
}

// SubInfo is the EXPLAIN view of one subscription.
type SubInfo struct {
	// Fallback reports unproven MaskAll delivery (>64 classes or
	// predicate compilation failed); Classes is nil then.
	Fallback bool
	// Events counts events routed since this subscription was added: the
	// denominator for per-class admission rates.
	Events uint64
	// Classes holds one entry per class index, in order.
	Classes []ClassAdmission
}

// Describe returns the EXPLAIN view of subscription id. The second result
// is false when id is not registered.
func (r *Router) Describe(id int64) (SubInfo, bool) {
	s, ok := r.byID[id]
	if !ok {
		return SubInfo{}, false
	}
	si := SubInfo{Fallback: s.fallback, Events: r.stats.Events - s.baseEvents}
	if s.fallback {
		return si, true
	}
	si.Classes = make([]ClassAdmission, s.nclasses)
	for i := range si.Classes {
		si.Classes[i] = ClassAdmission{
			Class:    i,
			Always:   s.alwaysMask&(1<<uint(i)) != 0,
			Admitted: s.admitted[i],
		}
	}
	for _, ca := range s.classes {
		cls := bits.TrailingZeros64(ca.bit)
		for _, eq := range ca.eqs {
			si.Classes[cls].EqAtoms = append(si.Classes[cls].EqAtoms, eq.text)
		}
		for _, rng := range ca.rngs {
			si.Classes[cls].RangeAtoms = append(si.Classes[cls].RangeAtoms, rng.text)
		}
		for _, ai := range ca.resid {
			si.Classes[cls].Residual = append(si.Classes[cls].Residual, r.atoms[ai].text)
		}
	}
	return si, true
}

// Stats returns the router's counters.
func (r *Router) Stats() Stats { return r.stats }

// Subs returns the number of live subscriptions.
func (r *Router) Subs() int { return len(r.subs) }

// RangeTableSize returns the total entry count across every compiled
// sorted-threshold list (all cached schema tables, both directions): the
// live size of the range-dispatch index, for the metrics surface.
func (r *Router) RangeTableSize() int {
	n := 0
	for _, t := range r.tables {
		for i := range t.ranges {
			n += len(t.ranges[i].gt) + len(t.ranges[i].lt)
		}
	}
	return n
}

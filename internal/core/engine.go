package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/cost"
	"repro/internal/event"
	"repro/internal/explain"
	"repro/internal/expr"
	"repro/internal/operator"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// Strategy selects how the initial plan shape is chosen.
type Strategy int

const (
	// StrategyOptimal runs the Algorithm 5 search with the configured (or
	// uniform default) statistics.
	StrategyOptimal Strategy = iota
	// StrategyLeftDeep always builds the left-deep tree.
	StrategyLeftDeep
	// StrategyRightDeep always builds the right-deep tree.
	StrategyRightDeep
	// StrategyFixed uses Config.Shape verbatim.
	StrategyFixed
)

// Config tunes the engine.
type Config struct {
	// BatchSize is the number of primitive events accumulated per idle
	// round before assembly is attempted (§4.3). Default 64.
	BatchSize int
	// Strategy picks the initial plan shape.
	Strategy Strategy
	// Shape is the explicit shape for StrategyFixed.
	Shape *plan.Shape
	// Negation picks NSEQ push-down vs NEG-on-top (§4.4.2); with
	// StrategyOptimal and NegAuto the optimizer costs both.
	Negation plan.NegPlacement
	// UseHash enables hash-based equality predicates (§5.2.2).
	UseHash bool
	// Stats seeds the optimizer; nil uses uniform defaults.
	Stats *cost.Stats

	// Adaptive enables plan adaptation (§5.3).
	Adaptive bool
	// AdaptEvery re-checks statistics every N batches (default 16).
	AdaptEvery int
	// DriftThreshold is t: relative statistic change that triggers a
	// re-plan (default 0.5).
	DriftThreshold float64
	// ImproveThreshold is c: minimum predicted relative cost improvement
	// required to install the new plan (default 0.2).
	ImproveThreshold float64

	// MaxDisorder, when positive, inserts a reordering stage (§4.1) that
	// tolerates events arriving up to MaxDisorder ticks late.
	MaxDisorder int64

	// StatsSeed seeds the sampling collector (default 1).
	StatsSeed int64

	// DisableEAT turns off earliest-allowed-timestamp push-down (§4.3),
	// for ablation benchmarks only: buffers are pruned by a lagging
	// horizon instead and stale records are filtered by window checks.
	DisableEAT bool
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.AdaptEvery <= 0 {
		c.AdaptEvery = 16
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.5
	}
	if c.ImproveThreshold <= 0 {
		c.ImproveThreshold = 0.2
	}
	if c.StatsSeed == 0 {
		c.StatsSeed = 1
	}
	return c
}

// Field is one RETURN-clause output.
type Field struct {
	Name string
	// Events holds the matched event(s) for whole-class items.
	Events []*event.Event
	// Value holds the computed value for expression items.
	Value event.Value
}

// Match is one detected composite event.
//
// A *Match handed to an emit callback is borrowed: it is valid only until
// the callback returns, like bufio.Scanner.Bytes, because its storage is
// reused for the next match. A callback that keeps a match keeps m.Clone().
type Match struct {
	Start, End int64
	Fields     []Field
}

// Clone returns a copy of m the caller may keep: it shares m's events and
// values, which are immutable, but none of m's storage.
func (m *Match) Clone() *Match {
	c := new(Match)
	CopyMatch(c, nil, m)
	return c
}

// CopyMatch overwrites dst with src, reusing dst's Fields array and evs as
// the backing of dst's event slices, and returns evs (grown if it had to).
// Like Clone, the copy shares no storage with src, so it stays valid after
// src's is reused; unlike Clone, a dst recycled with its evs allocates
// nothing once both have grown to the largest match copied into them.
func CopyMatch(dst *Match, evs []*event.Event, src *Match) []*event.Event {
	n := 0
	for i := range src.Fields {
		n += len(src.Fields[i].Events)
	}
	// Grown once up front, so no append below moves the slices already cut.
	evs = slices.Grow(evs[:0], n)
	dst.Start, dst.End = src.Start, src.End
	dst.Fields = append(dst.Fields[:0], src.Fields...)
	for i := range dst.Fields {
		f := &dst.Fields[i]
		if f.Events == nil {
			continue
		}
		lo := len(evs)
		evs = append(evs, f.Events...)
		f.Events = evs[lo:len(evs):len(evs)]
	}
	return evs
}

// Engine runs one query over a stream of primitive events.
type Engine struct {
	q    *query.Query
	cfg  Config
	plan *plan.Plan
	emit func(*Match)

	retNames []string
	retClass []int // class index for whole-class items, else -1
	retEval  []expr.Evaluator

	collector *stats.Collector
	planStats *cost.Stats // statistics snapshot the current plan was chosen with
	planCost  float64

	reorder *operator.Reorderer

	// pool recycles buffer records across the whole plan (and across plan
	// switches): records return to it at eviction, consumed-prefix drops
	// and buffer clears, making steady-state ingest allocation-free.
	pool *buffer.Pool

	now        int64
	batchCount int
	batchFill  int
	lastSeq    uint64 // largest arrival sequence number observed/assigned
	finalSet   map[int]bool

	renv expr.RecordEnv // reused RETURN-clause environment

	// Counters are atomics so Snapshot may be read from another goroutine
	// (the concurrent runtime aggregates Stats while workers run). The
	// engine itself remains single-writer: Process/Flush/SyncAt must not be
	// called concurrently.
	events   atomic.Uint64
	matches  atomic.Uint64
	rounds   atomic.Uint64
	switches atomic.Uint64
	peakMem  atomic.Int64

	// src, when non-nil, is the shared-source node standing in for a
	// prefix subtree materialized by a shared Subplan (NewEngineSharedPrefix).
	src *operator.Source

	// lastSwitch records the most recent adaptive re-plan as a
	// before/after fingerprint pair (single-writer, like plan).
	lastSwitch *explain.Switch

	recTap func(*buffer.Record)

	// scratch is the one Match every emit borrows (toMatch; allocated on
	// first use), and scratchEvs backs its single-event Fields, slot i for
	// RETURN item i.
	scratch    *Match
	scratchEvs []*event.Event
}

// SetRecordTap installs a callback receiving every emitted root record
// (tests and experiment harnesses; cheaper than building Matches).
func (e *Engine) SetRecordTap(f func(*buffer.Record)) { e.recTap = f }

// NewEngine compiles q into an executable engine; emit receives matches in
// end-time order, each borrowed only until emit returns (see Match).
func NewEngine(q *query.Query, cfg Config, emit func(*Match)) (*Engine, error) {
	if q.Info == nil {
		return nil, fmt.Errorf("core: query not analyzed")
	}
	cfg = cfg.withDefaults()
	e := &Engine{q: q, cfg: cfg, emit: emit, now: math.MinInt64 / 2}

	shape, negMode, err := e.chooseShape(cfg.Stats)
	if err != nil {
		return nil, err
	}
	p, err := plan.Build(q, shape, plan.Options{
		Negation: negMode, UseHash: cfg.UseHash, Adaptive: cfg.Adaptive,
	}, nil)
	if err != nil {
		return nil, err
	}
	e.plan = p
	e.pool = buffer.NewPool(q.Info.NumClasses())
	for _, b := range p.Buffers {
		b.SetPool(e.pool)
	}

	if err := e.compileReturn(); err != nil {
		return nil, err
	}
	e.finalSet = map[int]bool{}
	for _, c := range q.Info.FinalClasses {
		e.finalSet[c] = true
	}
	if cfg.MaxDisorder > 0 {
		e.reorder = operator.NewReorderer(cfg.MaxDisorder)
	}
	if cfg.Adaptive {
		e.collector = stats.NewCollector(q.Info, q.Within/2, 8, cfg.StatsSeed)
		for cls, leaf := range p.Leaves {
			cls := cls
			leaf.SetObserver(func(ev *event.Event, passed bool) {
				e.collector.Observe(cls, ev, passed)
			})
		}
		e.planStats = cfg.Stats
		if e.planStats == nil {
			e.planStats = cost.UniformStats(q.Info, q.Within, 1)
		}
		if r, err := optimizer.Optimize(q, e.planStats, cfg.UseHash); err == nil {
			e.planCost = r.Estimate.Cost
		}
	}
	return e, nil
}

// chooseShape picks the initial shape per the strategy.
func (e *Engine) chooseShape(st *cost.Stats) (*plan.Shape, plan.NegPlacement, error) {
	negMode := e.cfg.Negation
	units, _, err := plan.Units(e.q.Info, negMode)
	if err != nil {
		return nil, negMode, err
	}
	switch e.cfg.Strategy {
	case StrategyLeftDeep:
		return plan.LeftDeep(len(units)), negMode, nil
	case StrategyRightDeep:
		return plan.RightDeep(len(units)), negMode, nil
	case StrategyFixed:
		if e.cfg.Shape == nil {
			return nil, negMode, fmt.Errorf("core: StrategyFixed requires Config.Shape")
		}
		return e.cfg.Shape, negMode, nil
	default:
		if st == nil {
			st = cost.UniformStats(e.q.Info, e.q.Within, 1)
		}
		r, err := optimizer.Optimize(e.q, st, e.cfg.UseHash)
		if err != nil {
			return nil, negMode, err
		}
		if negMode == plan.NegAuto {
			negMode = r.Negation
		}
		return r.Shape, negMode, nil
	}
}

// compileReturn prepares the RETURN-clause evaluators.
func (e *Engine) compileReturn() error {
	for _, item := range e.q.Return {
		name := item.As
		if name == "" {
			name = item.String()
		}
		if ar, ok := item.Expr.(*query.AttrRef); ok && ar.Attr == "" {
			e.retNames = append(e.retNames, name)
			e.retClass = append(e.retClass, ar.Class)
			e.retEval = append(e.retEval, nil)
			continue
		}
		ev, err := expr.Compile(item.Expr)
		if err != nil {
			return err
		}
		e.retNames = append(e.retNames, name)
		e.retClass = append(e.retClass, -1)
		e.retEval = append(e.retEval, ev)
	}
	return nil
}

// Process feeds one primitive event. Events must arrive in non-decreasing
// timestamp order unless MaxDisorder is configured.
//
// Sequence numbers: when ev.Seq is already set and monotone (a source such
// as the concurrent runtime or the workload generators pre-stamped it),
// the engine adopts it without touching the event, so one immutable event
// may be shared by many engines with no per-engine copy. Events arriving
// with Seq == 0 (or out of sequence order) are stamped in place, mutating
// the event — such events must be engine-private, as before.
func (e *Engine) Process(ev *event.Event) {
	if e.reorder != nil {
		// The reordering stage re-sequences events, which may require
		// restamping Seq after release; work on a pooled private copy so
		// shared events stay immutable. Copies rejected by every leaf
		// filter are in no buffer and recycle immediately; copies of
		// dropped-late events are never made (Late short-circuits).
		if e.reorder.Late(ev.Ts) {
			return
		}
		cp := event.AcquireEvent()
		*cp = *ev
		for _, r := range e.reorder.Push(cp) {
			if !e.ingest(r) {
				event.ReleaseEvent(r)
			}
		}
		return
	}
	e.ingest(ev)
}

// ProcessAdmitted feeds one primitive event whose leaf admission was
// already decided upstream: classes is a bitmask over class indexes (bit i
// set ⇔ the event passes class i's pushed-down filter). Admitted leaves
// skip filter re-evaluation; the others only report a reject to their
// sampling observer. The mask must be exact with respect to the leaf
// filters — a multi-query router computes it from the same single-class
// predicate set plan.Build pushes down (see internal/router).
//
// Two cases fall back to Process (full filter evaluation): the router's
// MaskAll sentinel, which means "delivered without per-class proof"
// (fallback subscriptions), and engines with a reordering stage, where
// admission bits don't survive the reorder heap.
func (e *Engine) ProcessAdmitted(ev *event.Event, classes uint64) {
	if classes == ^uint64(0) || e.reorder != nil {
		e.Process(ev)
		return
	}
	e.beginIngest(ev)
	for i, leaf := range e.plan.Leaves {
		if classes&(1<<uint(i)) != 0 {
			leaf.InsertAdmitted(ev)
		} else {
			leaf.Observe(ev, false)
		}
	}
	e.endIngest()
}

// beginIngest stamps/adopts the arrival sequence number and advances the
// event counter and clock; the caller inserts into leaves between it and
// endIngest. Shared by the direct and the pre-admitted ingest paths so
// their bookkeeping cannot diverge.
func (e *Engine) beginIngest(ev *event.Event) {
	if ev.Seq == 0 || ev.Seq <= e.lastSeq {
		e.lastSeq++
		ev.Seq = e.lastSeq
	} else {
		e.lastSeq = ev.Seq
	}
	e.events.Add(1)
	if ev.Ts > e.now {
		e.now = ev.Ts
	}
}

// endIngest closes the batch when full.
func (e *Engine) endIngest() {
	e.batchFill++
	if e.batchFill >= e.cfg.BatchSize {
		e.endBatch(e.now)
	}
}

// ingest stamps/adopts the arrival sequence number, routes the event to the
// leaves and closes the batch when full. It reports whether any leaf
// accepted the event (false means the event is referenced by no buffer).
func (e *Engine) ingest(ev *event.Event) bool {
	e.beginIngest(ev)
	accepted := e.insert(ev)
	e.endIngest()
	return accepted
}

// insert routes the event to every leaf of its classes. All classes read
// the same input stream; leaf filters decide membership (§4.1). It reports
// whether at least one leaf accepted the event.
func (e *Engine) insert(ev *event.Event) bool {
	accepted := false
	for _, leaf := range e.plan.Leaves {
		if leaf.Insert(ev) {
			accepted = true
		}
	}
	return accepted
}

// endBatch closes the current idle round and runs an assembly round if the
// final event class has new instances (§4.3 steps 2-4).
func (e *Engine) endBatch(now int64) {
	e.batchFill = 0
	e.batchCount++
	if eat, ok := e.triggerEAT(); ok {
		e.assemble(eat, now)
	} else {
		e.maintainSource()
	}
	if e.cfg.Adaptive && e.batchCount%e.cfg.AdaptEvery == 0 {
		e.maybeAdapt()
	}
}

// maintainSource keeps a shared-prefix source flowing between assembly
// rounds: with no unconsumed final-class events there is nothing to
// assemble, but the source must still drain the shared producer — a
// stalled reader would clamp the producer's eviction and pin its buffer
// (and every pulled record it feeds) indefinitely. Draining outside a
// round is invisible (the records would be pulled by the next round
// anyway), and records starting before now - window are evicted: with no
// unconsumed final instance, any future match ends at or after now, so
// they could never satisfy the window again.
func (e *Engine) maintainSource() {
	if e.src == nil {
		return
	}
	e.src.Assemble(0, e.now)
	e.src.Out().EvictBefore(e.now - e.q.Within)
}

// triggerEAT reports whether an assembly round should run and computes the
// earliest allowed timestamp: the earliest end-timestamp of unconsumed
// final-class events minus the window (§4.3).
func (e *Engine) triggerEAT() (int64, bool) {
	minEnd, found := e.minFinalEnd()
	if !found {
		return 0, false
	}
	return minEnd - e.q.Within, true
}

// minFinalEnd returns the earliest end-timestamp among unconsumed
// final-class events, if any are buffered.
func (e *Engine) minFinalEnd() (int64, bool) {
	minEnd := int64(math.MaxInt64)
	found := false
	for _, c := range e.q.Info.FinalClasses {
		b := e.plan.Leaves[c].Out()
		if b.Unconsumed() == 0 {
			continue
		}
		if end := b.At(b.Cursor()).End; end < minEnd {
			minEnd = end
		}
		found = true
	}
	return minEnd, found
}

// MatchHorizon returns a lower bound on the End of any match a future
// Process, SyncAt or Flush call may emit: every assembly round ends its new
// composites on a previously unconsumed final-class instance, so no future
// match can end before the earliest such instance. When no unconsumed
// final-class events are buffered (and no late events are pending in the
// reordering stage) it returns math.MaxInt64: producing a match then
// requires future input, whose timestamps are at least the stream time.
// The concurrent runtime combines this with per-shard stream time to form
// merge watermarks.
func (e *Engine) MatchHorizon() int64 {
	h := int64(math.MaxInt64)
	if end, ok := e.minFinalEnd(); ok {
		h = end
	}
	if e.reorder != nil && e.reorder.Pending() > 0 {
		if lb := e.now - e.cfg.MaxDisorder; lb < h {
			h = lb
		}
	}
	return h
}

// SyncAt closes the current idle round early, running an assembly round if
// the final event classes have unconsumed instances. The concurrent
// runtime calls it at shard-batch boundaries so matches are emitted (and
// the merge watermark advances) without waiting for BatchSize events.
//
// An engine behind a router does not see every stream event, so its clock
// is advanced to the stream time ts first, and — even when no events were
// delivered since the last round — an assembly round still runs whenever
// the match horizon lags the stream (unconfirmed records, e.g. a pending
// trailing negation, whose confirmation depends only on time passing).
// Without that round a starved engine would hold the merge watermark back
// indefinitely.
func (e *Engine) SyncAt(ts int64) {
	if e.reorder != nil {
		// Drive the reorder clock to the stream time first: a routed
		// engine's reorderer only sees admitted events, so without this a
		// starved engine would hold pending events (and the MatchHorizon
		// reorder bound, hence the merge watermark) frozen forever. The
		// releases are exactly those a deliver-to-all engine would have
		// performed by now, which also keeps the bound e.now - MaxDisorder
		// below every still-pending timestamp after e.now advances below.
		for _, r := range e.reorder.AdvanceTime(ts) {
			if !e.ingest(r) {
				event.ReleaseEvent(r)
			}
		}
	}
	if ts > e.now {
		e.now = ts
	}
	if e.batchFill > 0 {
		e.endBatch(e.now)
		return
	}
	if e.MatchHorizon() < ts {
		e.endBatch(e.now)
		return
	}
	// Starved routed engine, nothing to confirm: still drain the shared
	// source so the producer's eviction never stalls on this reader.
	e.maintainSource()
}

// assemble runs one assembly round and drains matches from the root.
func (e *Engine) assemble(eat, now int64) {
	e.rounds.Add(1)
	if e.cfg.DisableEAT {
		// ablation: no EAT push-down; evict only far behind the stream
		// (4 windows, from stream time — the now parameter is +inf during
		// Flush) to keep memory finite.
		eat = e.now - 4*e.q.Within
	}
	for _, b := range e.plan.Buffers {
		b.EvictBefore(eat)
	}
	e.plan.Root.Assemble(eat, now)
	e.drain()
	if m := e.liveMemory(); m > e.peakMem.Load() {
		e.peakMem.Store(m)
	}
}

// drain emits new root records as matches.
func (e *Engine) drain() {
	out := e.plan.Root.Out()
	for i := out.Cursor(); i < out.Len(); i++ {
		rec := out.At(i)
		if !e.plan.EmitOK(rec) {
			continue
		}
		e.matches.Add(1)
		if e.recTap != nil {
			e.recTap(rec)
		}
		if e.emit != nil {
			e.emit(e.toMatch(rec))
			// The callback has returned: drop the event pointers, so an
			// idle engine's scratch pins nothing of its last match.
			clear(e.scratch.Fields)
			clear(e.scratchEvs)
		}
	}
	out.Consume()
	out.DropConsumedPrefix()
}

// toMatch fills the engine's scratch match from a root record, allocating
// nothing after the first call however long the RETURN list. Each
// single-event item's slice is capped to its own backing slot, so a
// callback's append cannot reach its neighbour.
func (e *Engine) toMatch(rec *buffer.Record) *Match {
	m := e.scratch
	if m == nil {
		n := len(e.retNames)
		m = &Match{Fields: make([]Field, n)}
		e.scratch, e.scratchEvs = m, make([]*event.Event, n)
	}
	m.Start, m.End = rec.Start, rec.End
	e.renv.R = rec
	for i, name := range e.retNames {
		f := &m.Fields[i]
		f.Name = name
		if cls := e.retClass[i]; cls < 0 {
			f.Value = e.retEval[i](&e.renv)
		} else if s := rec.Slots[cls]; s.E == nil {
			f.Events = s.Group
		} else {
			e.scratchEvs[i] = s.E
			f.Events = e.scratchEvs[i : i+1 : i+1]
		}
	}
	e.renv.R = nil
	return m
}

// Flush forces a final assembly round with an infinite horizon so trailing
// negations and closures confirm, then drains remaining matches.
func (e *Engine) Flush() {
	if e.reorder != nil {
		for _, r := range e.reorder.Flush() {
			if !e.ingest(r) {
				event.ReleaseEvent(r)
			}
		}
	}
	eat, ok := e.triggerEAT()
	if !ok {
		eat = e.now - e.q.Within
	}
	e.assemble(eat, math.MaxInt64/2)
	e.batchFill = 0
}

// maybeAdapt re-runs the plan search when statistics drifted beyond t and
// installs the new plan when it predicts an improvement beyond c (§5.3).
func (e *Engine) maybeAdapt() {
	cur := e.collector.Snapshot(e.q.Within, e.now)
	if e.planStats != nil && !stats.Drifted(e.planStats, cur, e.cfg.DriftThreshold) {
		return
	}
	r, err := optimizer.Optimize(e.q, cur, e.cfg.UseHash)
	if err != nil {
		return
	}
	// estimate the current plan's cost under the NEW statistics
	curEst, err := optimizer.EstimateShape(e.q, cur, e.cfg.UseHash, e.plan.Opts.Negation, e.plan.Shape)
	if err != nil {
		return
	}
	e.planStats = cur
	if sameShape(r.Shape, e.plan.Shape) && r.Negation == e.plan.Opts.Negation {
		e.planCost = r.Estimate.Cost
		return
	}
	if r.Estimate.Cost >= curEst.Cost*(1-e.cfg.ImproveThreshold) {
		return
	}
	e.switchPlan(r)
}

// switchPlan installs a new plan: intermediate state is discarded, leaf
// buffers are kept, and non-final leaf cursors rewind so the next assembly
// round rebuilds intermediate results "as if it were the first round"
// (§5.3). Final-class cursors are kept, which makes switching duplicate-
// free: every output needs a not-yet-consumed final-class event.
func (e *Engine) switchPlan(r *optimizer.Result) {
	newPlan, err := plan.Build(e.q, r.Shape, plan.Options{
		Negation: r.Negation, UseHash: e.cfg.UseHash, Adaptive: true,
	}, e.plan.Leaves)
	if err != nil {
		return
	}
	e.lastSwitch = &explain.Switch{From: e.plan.Fingerprint(), To: newPlan.Fingerprint()}
	// Recycle the old plan's intermediate state (its records are uniquely
	// owned, leaves are shared with the new plan and skipped), then hand
	// the pool to the new plan's buffers.
	leafBufs := make(map[*buffer.Buf]bool, len(e.plan.Leaves))
	for _, leaf := range e.plan.Leaves {
		leafBufs[leaf.Out()] = true
	}
	for _, b := range e.plan.Buffers {
		if !leafBufs[b] {
			b.Clear()
		}
	}
	for _, b := range newPlan.Buffers {
		b.SetPool(e.pool)
	}
	for cls, leaf := range e.plan.Leaves {
		if !e.finalSet[cls] {
			leaf.Out().ResetCursor()
		}
	}
	e.plan = newPlan
	e.planCost = r.Estimate.Cost
	e.switches.Add(1)
}

// liveMemory approximates the bytes held by live buffer records (the
// deterministic peak-memory metric of §6.2).
func (e *Engine) liveMemory() int64 {
	var recs, slots int64
	for _, b := range e.plan.Buffers {
		n := int64(b.Len())
		recs += n
		slots += n * int64(e.q.Info.NumClasses())
	}
	// Record header ~48B, slot ~32B (event pointer + group header).
	return recs*48 + slots*32
}

// EngineStats reports engine counters.
type EngineStats struct {
	Matches      uint64
	Rounds       uint64
	PlanSwitches uint64
	PeakMemBytes int64
	Events       uint64
}

// Add folds o's counters into s (PeakMemBytes sums, so a fold over several
// engines is an upper bound on their simultaneous peak).
func (s *EngineStats) Add(o EngineStats) {
	s.Matches += o.Matches
	s.Rounds += o.Rounds
	s.PlanSwitches += o.PlanSwitches
	s.PeakMemBytes += o.PeakMemBytes
	s.Events += o.Events
}

// Snapshot returns the engine counters. It is safe to call from another
// goroutine while the engine is processing events.
func (e *Engine) Snapshot() EngineStats {
	return EngineStats{
		Matches: e.matches.Load(), Rounds: e.rounds.Load(), PlanSwitches: e.switches.Load(),
		PeakMemBytes: e.peakMem.Load(), Events: e.events.Load(),
	}
}

// Plan exposes the current physical plan (EXPLAIN, tests).
func (e *Engine) Plan() *plan.Plan { return e.plan }

// Now returns the largest timestamp observed.
func (e *Engine) Now() int64 { return e.now }

func sameShape(a, b *plan.Shape) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if (a.Unit >= 0) != (b.Unit >= 0) || a.Unit != b.Unit {
		return false
	}
	if a.Unit >= 0 {
		return true
	}
	return sameShape(a.L, b.L) && sameShape(a.R, b.R)
}

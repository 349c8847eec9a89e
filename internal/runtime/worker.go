package runtime

import (
	"cmp"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/slicepool"
	"repro/internal/wal"
)

// shardMsg is one unit of work on a worker's input queue: a batch of
// events for this shard (possibly empty — a heartbeat), the stream time at
// flush, and at most one registry operation. Queue order defines the
// shard-local event order, so registrations take effect at an exact point
// in the stream.
type shardMsg struct {
	events []*event.Event
	ts     int64 // stream time when the batch was flushed (max ingested ts)
	reg    *regOp
	unreg  QueryID
	snap   *snapOp
	// quar names an engine group quarantined elsewhere (another shard's
	// contained panic, or a merger-side reap) that this shard must drop
	// without recording a fault of its own.
	quar int64
}

// regOp hands a registration to a worker. Exactly one of two shapes:
//   - a new engine group: eng/sink are set and info is its router
//     subscription (nil subscribes without predicates: every event,
//     unproven), and — for shared-prefix consumers — prodID names the
//     producer to attach to, with prod/prodInfo carrying the producer
//     itself and its subscription when this registration creates it;
//   - an alias onto an existing group (whole-query dedupe): eng is nil and
//     gid names the group, which is guaranteed live by queue order.
//
// seq is the runtime's ingest sequence stamp at registration: the exact
// visibility barrier for shared partial matches (Subplan.Attach).
type regOp struct {
	id   QueryID
	gid  int64
	info *query.Info
	eng  *core.Engine
	sink *matchSink
	emit func(*core.Match)
	seq  uint64

	prodID   int64
	prod     *core.Subplan
	prodInfo *query.Info
}

// matchSink collects one engine's emitted matches until the worker's visit
// copies them out (collect, which truncates rather than releases the slice).
// The engine's emit callback writes it synchronously inside the worker
// goroutine, so it needs no locking. The engine lends its match only for
// the callback, so add copies it into a recycled pooledMatch.
type matchSink struct{ buf []*pooledMatch }

func (s *matchSink) add(m *core.Match) {
	pm := matchPool.Get().(*pooledMatch)
	pm.evs = core.CopyMatch(&pm.Match, pm.evs, m)
	s.buf = append(s.buf, pm)
}

// pooledMatch is the runtime's copy of one emitted match: the Match every
// OnMatch of the match's queries borrows, plus the backing of its event
// slices.
type pooledMatch struct {
	core.Match
	evs []*event.Event
}

// matchPool recycles match copies: a worker's sink takes one per emitted
// match, and the merger puts every match of a release round back once the
// round's callbacks have returned, so delivering a match allocates nothing.
// A sync.Pool rather than a per-shard free list, because a free list would
// keep the in-flight high-water mark (thousands of matches per batch on a
// match-heavy query) alive across GCs; the pool lets a GC shrink it.
var matchPool = sync.Pool{New: func() any { return new(pooledMatch) }}

// recycle returns a delivered match to the pool, dropping its event
// pointers first so an idle pooled match pins no stream data. Under the
// poison test hook the match is overwritten instead and never reused, so
// a callback that kept it past return reads poisonEnd.
func (rt *Runtime) recycle(m *pooledMatch) {
	clear(m.Fields)
	clear(m.evs)
	if rt.cfg.test.poison {
		m.Start, m.End = poisonEnd, poisonEnd
		return
	}
	matchPool.Put(m)
}

// poisonEnd is the Start and End of a match recycled under the poison
// test hook.
const poisonEnd = math.MinInt64

// pendingMatch is one match waiting in the merger for its watermark.
// Dedupe aliases share one match; own marks the entry that recycles it.
type pendingMatch struct {
	end   int64
	shard int
	seq   uint64 // per-shard emission order, for a deterministic tie-break
	m     *pooledMatch
	own   bool
	emit  func(*core.Match)
	id    QueryID // owning query, for merger-side fault containment
}

// matchBatchPool recycles the pendingMatch batches workers ship to the
// merger (worker allocates, merger returns), keeping steady-state batch
// reporting allocation-free (see internal/slicepool).
var matchBatchPool slicepool.Pool[pendingMatch]

func getMatchBatch() []pendingMatch  { return matchBatchPool.Get() }
func putMatchBatch(b []pendingMatch) { matchBatchPool.Put(b) }

// mergeMsg is one worker's batch report to the merger: the matches its
// engines emitted this batch (sorted by end-time) and the shard's new
// watermark — a lower bound on the End of any match the shard may still
// produce. final marks the worker's last message, sent after Close
// flushed every engine. snap, when the batch was a snapshot op, carries
// the filled snapshot, which the merger answers only after releasing
// what the new watermark allows (see Runtime.snap).
type mergeMsg struct {
	shard     int
	matches   []pendingMatch
	watermark int64
	final     bool
	snap      *snapOp
}

// engineGroup is one physical engine on this shard together with the
// queries aliased onto it. Without whole-query dedupe every group has
// exactly one slot; with it, textually identical queries share the group
// and each gets the group's matches fanned out at collect time.
type engineGroup struct {
	gid    int64
	eng    *core.Engine
	sink   *matchSink
	slots  []*querySlot        // aliases, in registration order
	reader *buffer.ShareReader // shared-prefix consumer's producer cursor
	prodID int64               // producer the reader belongs to (0 = none)

	// adaptive caches eng.IsAdaptive(): the statistics collector buckets
	// router-reject credit by batch time, so an adaptive group is due in
	// every batch rather than settled lazily.
	adaptive bool
	// due marks membership of worker.due (see there). horizon caches the
	// engine's MatchHorizon as of its last visit — exact until the next
	// one, since nothing else mutates the engine — and visited is the
	// worker.batch of that visit, so no group is visited twice per batch.
	due     bool
	horizon int64
	visited uint64

	// quarantined marks a group dropped by a contained panic: every
	// dispatch path skips it until the batch-boundary sweep removes its
	// state structurally.
	quarantined bool
}

// querySlot is one registered query.
type querySlot struct {
	id   QueryID
	emit func(*core.Match)
	g    *engineGroup
}

// prodEntry is one live shared-subplan producer on this shard, with the
// consumer groups whose horizons bound its eviction.
type prodEntry struct {
	id      int64
	prod    *core.Subplan
	members []*engineGroup

	// quarantined marks a producer dropped by a contained panic; its
	// consumer groups are quarantined with it (their shared prefix state
	// is unrecoverable).
	quarantined bool
}

// worker owns one stream partition: a private physical engine per engine
// group, fed in shard-local order, plus the shard's shared-subplan
// producers. Each event batch is classified once by the shard's router;
// producers are fed and assembled before any consuming engine touches the
// batch, so consumers always observe a producer at or ahead of their own
// stream position.
//
// A batch costs O(touched), not O(registered): only groups that got events
// or are due get their boundary round (visit). Skipping the rest is sound
// because an engine outside both sets has an empty idle batch, no pending
// confirmation and no undrained producer records — its SyncAt would only
// move its clock, which the next delivery (whose timestamp is at least
// every shard time so far) or settle does anyway — and its MatchHorizon
// stays MaxInt64 until that delivery, so it cannot hold the watermark.
type worker struct {
	id        int
	in        chan shardMsg
	router    *router.Router
	delivered *atomic.Uint64 // runtime-wide (engine, event) delivery counter
	rounds    atomic.Uint64  // batch-boundary engine rounds run (visits)
	faults    *faultSink
	inj       *faultinject.Injector // nil in production
	// crashing, when set, tells the worker its input channel was closed by
	// a simulated crash, not a graceful Close: skip the final flush (a
	// crash cannot confirm trailing negations) and exit without advancing
	// the watermark. Test hook for the crash-recovery differential suite.
	crashing *atomic.Bool

	slots    []*querySlot
	groups   []*engineGroup // creation order
	byGID    map[int64]*engineGroup
	prods    []*prodEntry
	byProdID map[int64]*prodEntry

	// due lists the groups the next batch must visit even without events:
	// those whose horizon is finite (unconsumed final-class instances,
	// pending reorder events, time-driven confirmations), adaptive groups,
	// and — for the current batch — consumers with undrained producer
	// records. Entries whose due flag has dropped are compacted away by the
	// batch's due pass.
	due []*engineGroup

	// Per-message scratch: batch numbers the message (visited stamps), out
	// gathers its matches, wm folds its watermark, nDeliv and nRounds count
	// its deliveries and visits, site attributes a contained panic.
	batch           uint64
	out             []pendingMatch
	wm              int64
	nDeliv, nRounds uint64
	site            faultinject.Site
	emitSeq         uint64

	// shardTime is the largest timestamp of an event THIS shard received —
	// the clock an engine that sees every shard event has. Engines are
	// advanced to it, not to the global stream time, so time-driven
	// confirmations (trailing negation/closure) fire in the same batch
	// whether or not the router withheld events from the engine, keeping
	// delivery order byte-identical to the deliver-to-all reference.
	shardTime int64
	// quarDirty flags that a group or producer was quarantined since the
	// last structural sweep.
	quarDirty bool
}

// contain is the deferred recovery arm of every dispatch into query-owned
// code: a panic inside an engine or producer (or an injected fault)
// quarantines the owning unit instead of killing the worker — and with it
// every other query on the shard — and is attributed to the site the
// dispatch last entered (w.site). A faulted shared-prefix producer takes
// every consumer group attached to it along (their shared prefix state is
// unrecoverable).
func (w *worker) contain(unit any) {
	if r := recover(); r != nil {
		switch u := unit.(type) {
		case *engineGroup:
			w.quarantineGroup(u, string(w.site), r, debug.Stack())
		case *prodEntry:
			w.quarantineProd(u, string(w.site), r, debug.Stack())
		}
	}
}

// quarantineGroup marks a group failed after a contained panic: the flag
// stops all further dispatch, one fault per member query is recorded, and
// the batch-boundary sweep removes the group's state structurally. The
// worker records into the fault sink only — it must never take the
// runtime's registry lock (deadlock against a backpressured send phase);
// the next registry API call reaps the sink.
func (w *worker) quarantineGroup(g *engineGroup, site string, rec any, stack []byte) {
	if g.quarantined {
		return
	}
	g.quarantined = true
	w.quarDirty = true
	ids := make([]QueryID, len(g.slots))
	for i, s := range g.slots {
		ids[i] = s.id
	}
	w.faults.report(g.gid, ids, QueryFault{
		GroupID:  g.gid,
		Shard:    w.id,
		Site:     site,
		Panic:    fmt.Sprint(rec),
		Stack:    string(stack),
		StreamTs: w.shardTime,
	})
}

func (w *worker) quarantineProd(pe *prodEntry, site string, rec any, stack []byte) {
	if pe.quarantined {
		return
	}
	pe.quarantined = true
	w.quarDirty = true
	for _, g := range pe.members {
		w.quarantineGroup(g, site, rec, stack)
	}
}

// markDue adds g to the set the current (or next) batch must visit.
func (w *worker) markDue(g *engineGroup) {
	if !g.due {
		g.due = true
		w.due = append(w.due, g)
	}
}

// prodHorizon is the minimum cached MatchHorizon over a producer's live
// consumers; a quarantined member's position must not pin producer memory.
func prodHorizon(pe *prodEntry) int64 {
	h := int64(math.MaxInt64)
	for _, g := range pe.members {
		if !g.quarantined && g.horizon < h {
			h = g.horizon
		}
	}
	return h
}

// runProd feeds one producer its routed sub-batch and assembles it, under
// one panic containment, before any consumer touches the batch: its
// consumers' minimum MatchHorizon BEFORE the batch and batchMinTs, the
// batch's first (smallest) timestamp, together lower-bound every EAT a
// consumer round may use while processing the batch (see
// core.Subplan.Assemble). Consumers left with undrained records become
// due, so they drain this batch and never pin the producer. MaskAll
// deliveries fall back to full filter evaluation inside ProcessAdmitted;
// events carry the ingest side's monotone Seq and are shared unmutated.
func (w *worker) runProd(pe *prodEntry, sb router.SubBatch, batchMinTs int64) {
	defer w.contain(pe)
	w.site = faultinject.SiteProducerBatch
	w.inj.Hit(faultinject.SiteProducerBatch, w.id, sb.ID)
	for _, d := range sb.Events {
		pe.prod.ProcessAdmitted(d.Ev, d.Mask)
	}
	pe.prod.Assemble(prodHorizon(pe), batchMinTs)
	for _, g := range pe.members {
		if !g.quarantined && g.reader.Pending() {
			w.markDue(g)
		}
	}
}

// flushProd final-assembles a producer so consumer flushes observe all
// remaining partial matches.
func (w *worker) flushProd(pe *prodEntry) {
	if pe.quarantined {
		return
	}
	defer w.contain(pe)
	w.site = faultinject.SiteProducerBatch
	pe.prod.Flush(prodHorizon(pe))
}

// visit is one touched group's whole batch in a single cache-hot pass
// under one panic containment: feed its routed deliveries evs (of the
// batch's n events), credit the rest to an adaptive engine as router
// rejects — an event the router withheld was rejected by every class
// filter, so rates and selectivities describe the unconditioned stream a
// deliver-to-all engine measures — run the boundary round at shard time
// (SyncAt advances the clock past the withheld events and still runs a
// round when pending confirmations lag behind it), collect the emitted
// matches, and fold the new horizon into the watermark and the due set.
func (w *worker) visit(g *engineGroup, evs []router.Delivery, n int) {
	if g.quarantined || g.visited == w.batch {
		return
	}
	g.visited = w.batch
	defer w.contain(g)
	w.site = faultinject.SiteEngineBatch
	if len(evs) > 0 {
		w.inj.Hit(faultinject.SiteEngineBatch, w.id, g.gid)
		for _, d := range evs {
			g.eng.ProcessAdmitted(d.Ev, d.Mask)
		}
		w.nDeliv += uint64(len(evs))
	}
	if g.adaptive && n > len(evs) {
		g.eng.NoteRouterRejects(uint64(n-len(evs)), w.shardTime)
	}
	w.site = faultinject.SiteEngineSync
	w.inj.Hit(faultinject.SiteEngineSync, w.id, g.gid)
	g.eng.SyncAt(w.shardTime)
	w.nRounds++
	w.collect(g)
	g.horizon = g.eng.MatchHorizon()
	if g.horizon < w.wm {
		w.wm = g.horizon
	}
	if g.adaptive || g.horizon != math.MaxInt64 {
		w.markDue(g)
	} else {
		g.due = false
	}
}

// flushGroup runs a group's final flush under panic containment.
func (w *worker) flushGroup(g *engineGroup) {
	if g.quarantined {
		return
	}
	defer w.contain(g)
	w.site = faultinject.SiteEngineSync
	w.inj.Hit(faultinject.SiteEngineSync, w.id, g.gid)
	g.eng.Flush()
	w.collect(g)
}

// collect moves a group's emitted matches into the message's batch, one
// entry per slot: dedupe aliases share the group's one copy of each match
// (it is read-only to their callbacks), and the first slot's entry owns
// it. Equal ends put every alias entry in the same release round. seq
// carries the engine emission index until gathered stamps it.
func (w *worker) collect(g *engineGroup) {
	ms := g.sink.buf
	for si, s := range g.slots {
		for i, m := range ms {
			w.out = append(w.out, pendingMatch{end: m.End, shard: w.id, seq: uint64(i), m: m, own: si == 0, emit: s.emit, id: s.id})
		}
	}
	clear(ms)
	g.sink.buf = ms[:0]
}

// gathered returns the message's matches in the shard's emission order:
// each engine emits in end-time order, and end-time ties break by QueryID,
// then engine emission order. QueryIDs are assigned in registration order
// (and recovery re-registers in that order), so this is the order a walk
// over every slot in registration order would produce, at O(touched) cost.
// seq is stamped after the sort, so it is monotone across batches for the
// merger's tie-break.
func (w *worker) gathered() []pendingMatch {
	batch := w.out
	w.out = nil
	slices.SortFunc(batch, func(a, b pendingMatch) int {
		if a.end != b.end {
			return cmp.Compare(a.end, b.end)
		}
		if a.id != b.id {
			return cmp.Compare(a.id, b.id)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for i := range batch {
		w.emitSeq++
		batch[i].seq = w.emitSeq
	}
	return batch
}

// settle advances the clock of every group the batches skipped, so a
// snapshot or the final flush sees each engine where a round at every
// boundary would have left it. By the skipping invariant these SyncAts
// emit nothing and leave the horizon at MaxInt64: they are not rounds.
func (w *worker) settle() {
	for _, g := range w.groups {
		if !g.quarantined && g.eng.Now() < w.shardTime {
			w.syncIdle(g)
		}
	}
}

func (w *worker) syncIdle(g *engineGroup) {
	defer w.contain(g)
	w.site = faultinject.SiteEngineSync
	g.eng.SyncAt(w.shardTime)
}

// sweepQuarantined structurally removes every group and producer flagged
// since the last sweep. It runs at the batch boundary (after every visit),
// so no flagged state is removed mid-iteration. A quarantined consumer's
// reader is detached from its producer here, so the shared buffer stops
// clamping eviction on a dead reader's position — a failed consumer never
// pins producer memory.
func (w *worker) sweepQuarantined() {
	if !w.quarDirty {
		return
	}
	w.quarDirty = false
	w.slots = slices.DeleteFunc(w.slots, func(s *querySlot) bool { return s.g.quarantined })
	for _, g := range slices.Clone(w.groups) {
		if g.quarantined {
			w.dropGroup(g)
		}
	}
	for _, pe := range slices.Clone(w.prods) {
		if pe.quarantined {
			w.dropProd(pe)
		}
	}
}

// register applies one regOp at its exact queue position.
func (w *worker) register(op *regOp) {
	if op.prod != nil {
		pe := &prodEntry{id: op.prodID, prod: op.prod}
		w.prods = append(w.prods, pe)
		w.byProdID[op.prodID] = pe
		w.router.Add(op.prodID, op.prodInfo, pe)
	}
	var g *engineGroup
	if op.eng != nil {
		g = &engineGroup{gid: op.gid, eng: op.eng, sink: op.sink, adaptive: op.eng.IsAdaptive(), horizon: math.MaxInt64}
		w.groups = append(w.groups, g)
		w.byGID[op.gid] = g
		if g.adaptive {
			w.markDue(g)
		}
		if op.prodID != 0 {
			pe := w.byProdID[op.prodID]
			g.reader = pe.prod.Attach(op.seq)
			g.prodID = op.prodID
			op.eng.ConnectSharedPrefix(g.reader)
			pe.members = append(pe.members, g)
		}
		w.router.Add(op.gid, op.info, g)
	} else {
		g = w.byGID[op.gid]
		if g == nil || g.quarantined {
			// The host group was quarantined after the registry aliased
			// this query onto it: the new query inherits the fault rather
			// than silently running nowhere.
			w.faults.report(op.gid, []QueryID{op.id}, QueryFault{
				GroupID:  op.gid,
				Shard:    w.id,
				Site:     "register.alias",
				Panic:    "engine group quarantined before alias registration",
				StreamTs: w.shardTime,
			})
			return
		}
	}
	s := &querySlot{id: op.id, emit: op.emit, g: g}
	g.slots = append(g.slots, s)
	w.slots = append(w.slots, s)
}

// unregister removes a query slot; the group (and any producer it alone
// kept alive) goes with it when the last slot leaves.
func (w *worker) unregister(id QueryID) {
	i := slices.IndexFunc(w.slots, func(s *querySlot) bool { return s.id == id })
	if i < 0 {
		return
	}
	s := w.slots[i]
	w.slots = slices.Delete(w.slots, i, i+1)
	g := s.g
	g.slots = slices.DeleteFunc(g.slots, func(x *querySlot) bool { return x == s })
	if len(g.slots) == 0 {
		w.dropGroup(g)
	}
}

// dropGroup removes a group's shard-local state: list/index entries, its
// router subscription and — for shared-prefix consumers — its producer
// reader, dropping the producer when the last reader detaches. Shared by
// unregister and the quarantine sweep.
func (w *worker) dropGroup(g *engineGroup) {
	w.groups = slices.DeleteFunc(w.groups, func(x *engineGroup) bool { return x == g })
	g.due = false // the next due pass compacts the entry away
	delete(w.byGID, g.gid)
	w.router.Remove(g.gid)
	if g.reader == nil {
		return
	}
	pe := w.byProdID[g.prodID]
	if pe == nil {
		return
	}
	pe.members = slices.DeleteFunc(pe.members, func(x *engineGroup) bool { return x == g })
	// A quarantined producer's internals are suspect: skip Detach and let
	// the sweep drop the producer wholesale.
	if pe.quarantined {
		g.reader = nil
		return
	}
	pe.prod.Detach(g.reader)
	g.reader = nil
	if pe.prod.Readers() == 0 {
		w.dropProd(pe)
	}
}

// dropProd removes a producer's shard-local state; idempotent (the
// quarantine sweep may reach a producer the last consumer drop already
// removed).
func (w *worker) dropProd(pe *prodEntry) {
	if _, ok := w.byProdID[pe.id]; !ok {
		return
	}
	w.prods = slices.DeleteFunc(w.prods, func(x *prodEntry) bool { return x == pe })
	delete(w.byProdID, pe.id)
	w.router.Remove(pe.id)
}

func (w *worker) run(out chan<- mergeMsg) {
	streamTime := int64(math.MinInt64 / 2)
	w.shardTime = math.MinInt64 / 2

	for msg := range w.in {
		if msg.ts > streamTime {
			streamTime = msg.ts
		}
		n := len(msg.events)
		if n > 0 {
			// ingest order: the batch's last event carries its max ts
			if ts := msg.events[n-1].Ts; ts > w.shardTime {
				w.shardTime = ts
			}
		}
		// The shard watermark: no match this shard later produces can end
		// before it. Future matches complete either on a buffered unconsumed
		// final-class instance — only due groups have one, and every visit
		// folds its engine's MatchHorizon in — or on a future event, whose
		// timestamp is at least the flushed stream time.
		w.batch++
		w.out = getMatchBatch()
		w.wm = streamTime
		switch {
		case msg.reg != nil:
			w.register(msg.reg)
		case msg.unreg != 0:
			w.unregister(msg.unreg)
		case msg.snap != nil:
			w.snapshot(msg.snap)
		case msg.quar != 0:
			// Quarantine broadcast from the registry reap: the group
			// faulted on another shard (or in its OnMatch callback); drop
			// it here too, without recording a duplicate fault.
			if g, ok := w.byGID[msg.quar]; ok && !g.quarantined {
				g.quarantined = true
				w.quarDirty = true
			}
		}
		// One classification pass decides, per event, which engines (and
		// producers) receive it and with which admitted-class bits; groups
		// whose classes all reject an event are never touched. Producers
		// drain their deliveries and assemble first, so consumer rounds see
		// an up-to-date shared prefix.
		batches := w.router.Route(msg.events)
		if len(w.prods) > 0 {
			for _, sb := range batches {
				if pe, ok := sb.Payload.(*prodEntry); ok && !pe.quarantined {
					w.runProd(pe, sb, msg.events[0].Ts)
				}
			}
		}
		for _, sb := range batches {
			if g, ok := sb.Payload.(*engineGroup); ok {
				w.visit(g, sb.Events, n)
			}
		}
		// The due pass: groups owing a round regardless of deliveries. Its
		// visits never grow the list, so it compacts in place.
		keep := w.due[:0]
		for _, g := range w.due {
			if !g.due {
				continue // unregistered, or settled by its routed visit
			}
			w.visit(g, nil, n)
			if g.due && !g.quarantined {
				keep = append(keep, g)
			}
		}
		clear(w.due[len(keep):])
		w.due = keep
		w.delivered.Add(w.nDeliv)
		w.rounds.Add(w.nRounds)
		w.nDeliv, w.nRounds = 0, 0
		// The events now live in engine buffers: release the carrier slice.
		event.PutBatch(msg.events)
		w.sweepQuarantined()
		out <- mergeMsg{shard: w.id, matches: w.gathered(), watermark: w.wm, snap: msg.snap}
	}

	// Simulated crash: no final flush — a real crash cannot confirm the
	// trailing negations and closures a flush would emit, and recovery
	// must be free to veto them. The non-advancing watermark keeps the
	// merger from releasing anything more on this shard's account.
	if w.crashing != nil && w.crashing.Load() {
		out <- mergeMsg{shard: w.id, matches: getMatchBatch(), watermark: math.MinInt64, final: true}
		return
	}

	// Close: final flush confirms trailing negations and closures; after
	// it no shard match is outstanding, so the watermark jumps to +inf.
	// Idle engines settle first; producers flush before consumers so
	// consumer flushes observe every partial match.
	w.out = getMatchBatch()
	w.settle()
	for _, pe := range w.prods {
		w.flushProd(pe)
	}
	for _, g := range w.groups {
		w.flushGroup(g)
	}
	out <- mergeMsg{shard: w.id, matches: w.gathered(), watermark: math.MaxInt64, final: true}
}

// matchHeap is a hand-rolled min-heap of pending matches ordered by
// (end, shard, seq) — a total, deterministic order consistent with
// end-time order. It avoids container/heap's per-push interface boxing,
// which showed up as GC pressure on match-heavy workloads.
type matchHeap []pendingMatch

func (h matchHeap) less(i, j int) bool {
	if h[i].end != h[j].end {
		return h[i].end < h[j].end
	}
	if h[i].shard != h[j].shard {
		return h[i].shard < h[j].shard
	}
	return h[i].seq < h[j].seq
}

func (h *matchHeap) push(pm pendingMatch) {
	*h = append(*h, pm)
	a := *h
	for i := len(a) - 1; i > 0; {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (h *matchHeap) pop() pendingMatch {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = pendingMatch{} // release the match pointer to the GC
	a = a[:n]
	*h = a
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && a.less(l, min) {
			min = l
		}
		if r < n && a.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
	return top
}

// runMerger is the single consumer of every worker's match stream: it
// holds back matches until every shard's watermark passes their end-time,
// then releases them heap-ordered, giving one globally end-time-ordered
// output across all queries and shards. Per-query callbacks run here, so
// they are never invoked concurrently; a panicking callback quarantines
// its query (emitMatch) and its remaining queued matches are skipped.
// Every released match is recycled once its round's callbacks returned.
func (rt *Runtime) runMerger() {
	defer close(rt.merger)
	n := rt.cfg.Shards
	wms := make([]int64, n)
	for i := range wms {
		wms[i] = math.MinInt64
	}
	var h matchHeap
	var skip map[QueryID]bool // queries whose OnMatch panicked
	// Reused release scratch (zero steady-state allocs): round is what the
	// callbacks see, done every match the round took off the heap.
	var round []pendingMatch
	var done []*pooledMatch
	finals := 0
	deliver := func() {
		if len(round) == 0 {
			return
		}
		if rt.wal != nil {
			// Exactly-once boundary: advance and persist the emit watermark
			// BEFORE any callback runs, so a crash mid-round suppresses the
			// whole round on replay (matches may be lost to the crash, never
			// duplicated). Ends are non-decreasing across rounds, so the
			// (end, count) pair totals every match delivered so far.
			end, cnt := rt.wmEnd.Load(), rt.wmCount.Load()
			for i := range round {
				if round[i].end > end {
					end, cnt = round[i].end, 1
				} else {
					cnt++
				}
			}
			if rt.noteWALError(rt.wal.WriteEmitWM(wal.EmitWM{End: end, Count: cnt})) != nil {
				// The watermark did not become durable: delivering now would
				// double-deliver after recovery (replay would not suppress
				// these matches). Drop the round — every constituent event is
				// already durably logged ahead of the engines, so replay
				// rebuilds and delivers these matches itself.
				return
			}
			rt.wmEnd.Store(end)
			rt.wmCount.Store(cnt)
		}
		for i := range round {
			pm := &round[i]
			rt.delivered.Add(1)
			if pm.emit != nil && !rt.emitMatch(pm) {
				if skip == nil {
					skip = map[QueryID]bool{}
				}
				skip[pm.id] = true
			}
		}
	}
	release := func() {
		min := wms[0]
		for _, wm := range wms[1:] {
			if wm < min {
				min = wm
			}
		}
		// Strictly below the watermark: a shard at watermark W may still
		// produce a match ending exactly at W. So a round takes every match
		// at its largest end, which the WAL's (end, count) cursor relies on.
		for len(h) > 0 && h[0].end < min {
			pm := h.pop()
			if pm.own {
				done = append(done, pm.m)
			}
			if skip != nil && skip[pm.id] {
				continue
			}
			if rt.supActive {
				// Crash recovery: suppress replayed matches at or below the
				// recovered durable emit watermark — they were delivered
				// before the crash. Matches release in non-decreasing end
				// order, so once one passes the watermark the cursor is done.
				if pm.end < rt.supEnd || (pm.end == rt.supEnd && rt.supSeen < rt.supCount) {
					if pm.end == rt.supEnd {
						rt.supSeen++
					}
					rt.suppressed.Add(1)
					continue
				}
				rt.supActive = false
			}
			round = append(round, pm)
		}
		deliver()
		clear(round)
		round = round[:0]
		for _, m := range done {
			rt.recycle(m)
		}
		clear(done)
		done = done[:0]
	}
	for msg := range rt.mergeCh {
		for _, pm := range msg.matches {
			h.push(pm)
		}
		putMatchBatch(msg.matches)
		if msg.watermark > wms[msg.shard] {
			wms[msg.shard] = msg.watermark
		}
		release()
		if msg.snap != nil {
			// The Metrics/Explain barrier: everything this shard's
			// snapshot-time watermark lets go has been delivered.
			msg.snap.reply <- msg.snap.result
		}
		if msg.final {
			finals++
			if finals == n {
				return
			}
		}
	}
}

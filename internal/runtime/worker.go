package runtime

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
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

// matchSink collects one engine's emitted matches between batch
// boundaries. It is written synchronously by the engine's emit callback
// inside the worker goroutine, so it needs no locking. take/recycle
// alternate between two slices so steady-state collection reuses the same
// backing arrays instead of allocating per batch.
type matchSink struct{ buf, spare []*core.Match }

func (s *matchSink) add(m *core.Match) { s.buf = append(s.buf, m) }

func (s *matchSink) take() []*core.Match {
	out := s.buf
	s.buf = s.spare
	s.spare = nil
	return out
}

// recycle returns a slice obtained from take once its matches have been
// copied out.
func (s *matchSink) recycle(b []*core.Match) {
	clear(b)
	s.spare = b[:0]
}

// pendingMatch is one match waiting in the merger for its watermark.
type pendingMatch struct {
	end   int64
	shard int
	seq   uint64 // per-shard emission order, for a deterministic tie-break
	m     *core.Match
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
// flushed every engine.
type mergeMsg struct {
	shard     int
	matches   []pendingMatch
	watermark int64
	final     bool
}

// engineGroup is one physical engine on this shard together with the
// queries aliased onto it. Without whole-query dedupe every group has
// exactly one slot; with it, textually identical queries share the group
// and each gets the group's matches fanned out at gather time.
type engineGroup struct {
	gid    int64
	eng    *core.Engine
	sink   *matchSink
	slots  int
	reader *buffer.ShareReader // shared-prefix consumer's producer cursor
	prodID int64               // producer the reader belongs to (0 = none)

	// adaptive caches eng.IsAdaptive(); batchDeliv counts this group's
	// deliveries within the current routed batch, so the gap to the batch
	// size (= router-rejected events) can be credited to the engine's
	// statistics collector after the batch.
	adaptive   bool
	batchDeliv uint64

	// gather-round scratch: taken holds the engine's matches for the
	// current round, emitted marks that the first slot already delivered
	// the originals (later slots clone).
	round   uint64
	taken   []*core.Match
	emitted bool

	// quarantined marks a group dropped by a contained panic: every
	// dispatch path skips it until the batch-boundary sweep removes its
	// state structurally.
	quarantined bool
}

// querySlot is one registered query, in registration order. Slot order
// defines the deterministic per-batch match interleaving, exactly as the
// per-query engine list did before dedupe existed.
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
// group, fed in shard-local order, synced at every batch boundary, plus
// the shard's shared-subplan producers. Each event batch is classified
// once by the shard's router; producers are fed and assembled before any
// consuming engine touches the batch, so consumers always observe a
// producer at or ahead of their own stream position.
type worker struct {
	id        int
	in        chan shardMsg
	router    *router.Router
	delivered *atomic.Uint64 // runtime-wide (engine, event) delivery counter
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
	round    uint64

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

// syncProds runs one producer assembly round ahead of the consumers:
// horizon is each producer's consumers' minimum MatchHorizon BEFORE the
// batch, batchMinTs the batch's first (smallest) timestamp; together they
// lower-bound every EAT a consumer round may use while processing the
// batch (see core.Subplan.Assemble).
func (w *worker) syncProds(batchMinTs int64) {
	for _, pe := range w.prods {
		if pe.quarantined {
			continue
		}
		w.assembleProd(pe, batchMinTs, false)
	}
}

// flushProds final-assembles every producer so consumer flushes observe
// all remaining partial matches.
func (w *worker) flushProds() {
	for _, pe := range w.prods {
		if pe.quarantined {
			continue
		}
		w.assembleProd(pe, 0, true)
	}
}

// contain is the deferred recovery arm of every dispatch into query-owned
// code: a panic inside an engine or producer (or an injected fault)
// quarantines the owning unit instead of killing the worker — and with it
// every other query on the shard. A faulted shared-prefix producer takes
// every consumer group attached to it along (their shared prefix state is
// unrecoverable).
func (w *worker) contain(unit any, site faultinject.Site) {
	if r := recover(); r != nil {
		switch u := unit.(type) {
		case *engineGroup:
			w.quarantineGroup(u, string(site), r, debug.Stack())
		case *prodEntry:
			w.quarantineProd(u, string(site), r, debug.Stack())
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
	var ids []QueryID
	for _, s := range w.slots {
		if s.g == g {
			ids = append(ids, s.id)
		}
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

// admitter is the feed target of a routed sub-batch: an engine or a
// shared-prefix producer.
type admitter interface {
	ProcessAdmitted(ev *event.Event, classes uint64)
}

// feed delivers one routed sub-batch to its subscriber's engine or
// producer under panic containment (the payload is the owning group or
// producer entry). MaskAll deliveries fall back to full filter evaluation
// inside ProcessAdmitted. The ingest side pre-stamped a globally monotone
// Seq, so every target adopts it and shares the event unmutated — no
// per-engine copy on the hot path.
func (w *worker) feed(sb router.SubBatch, to admitter, site faultinject.Site) {
	defer w.contain(sb.Payload, site)
	w.inj.Hit(site, w.id, sb.ID)
	for _, d := range sb.Events {
		to.ProcessAdmitted(d.Ev, d.Mask)
	}
}

// assembleProd runs one producer assembly (or final flush) round under
// panic containment. Quarantined members no longer bound the horizon:
// their positions must not pin producer memory.
func (w *worker) assembleProd(pe *prodEntry, batchMinTs int64, flush bool) {
	defer w.contain(pe, faultinject.SiteProducerBatch)
	horizon := int64(math.MaxInt64)
	for _, g := range pe.members {
		if g.quarantined {
			continue
		}
		if h := g.eng.MatchHorizon(); h < horizon {
			horizon = h
		}
	}
	if flush {
		pe.prod.Flush(horizon)
	} else {
		pe.prod.Assemble(horizon, batchMinTs)
	}
}

// syncGroup runs one batch-boundary round (or final flush) under panic
// containment.
func (w *worker) syncGroup(g *engineGroup, flush bool) {
	defer w.contain(g, faultinject.SiteEngineSync)
	w.inj.Hit(faultinject.SiteEngineSync, w.id, g.gid)
	if flush {
		g.eng.Flush()
		return
	}
	// Engines see only admitted events; SyncAt advances their clock to the
	// shard time and still runs a round when pending confirmations lag
	// behind it.
	g.eng.SyncAt(w.shardTime)
}

// noteRejects credits router-level rejects to an adaptive engine's
// statistics collector under panic containment.
func (w *worker) noteRejects(g *engineGroup, n uint64) {
	defer w.contain(g, faultinject.SiteEngineBatch)
	g.eng.NoteRouterRejects(n, w.shardTime)
}

// sweepQuarantined structurally removes every group and producer flagged
// since the last sweep. It runs at the batch boundary (after gather), so
// no flagged state is removed mid-iteration. A quarantined consumer's
// reader is detached from its producer here, so the shared buffer stops
// clamping eviction on a dead reader's position — a failed consumer never
// pins producer memory.
func (w *worker) sweepQuarantined() {
	if !w.quarDirty {
		return
	}
	w.quarDirty = false
	for i := 0; i < len(w.slots); {
		if w.slots[i].g.quarantined {
			w.slots = append(w.slots[:i], w.slots[i+1:]...)
		} else {
			i++
		}
	}
	var qg []*engineGroup
	for _, g := range w.groups {
		if g.quarantined {
			qg = append(qg, g)
		}
	}
	for _, g := range qg {
		w.dropGroup(g)
	}
	var qp []*prodEntry
	for _, pe := range w.prods {
		if pe.quarantined {
			qp = append(qp, pe)
		}
	}
	for _, pe := range qp {
		w.dropProd(pe)
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
		g = &engineGroup{gid: op.gid, eng: op.eng, sink: op.sink, adaptive: op.eng.IsAdaptive()}
		w.groups = append(w.groups, g)
		w.byGID[op.gid] = g
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
	g.slots++
	w.slots = append(w.slots, &querySlot{id: op.id, emit: op.emit, g: g})
}

// unregister removes a query slot; the group (and any producer it alone
// kept alive) goes with it when the last slot leaves.
func (w *worker) unregister(id QueryID) {
	var g *engineGroup
	for i, s := range w.slots {
		if s.id == id {
			g = s.g
			w.slots = append(w.slots[:i], w.slots[i+1:]...)
			break
		}
	}
	if g == nil {
		return
	}
	g.slots--
	if g.slots > 0 {
		return
	}
	w.dropGroup(g)
}

// dropGroup removes a group's shard-local state: list/index entries, its
// router subscription and — for shared-prefix consumers — its producer
// reader, dropping the producer when the last reader detaches. Shared by
// unregister and the quarantine sweep.
func (w *worker) dropGroup(g *engineGroup) {
	for i, x := range w.groups {
		if x == g {
			w.groups = append(w.groups[:i], w.groups[i+1:]...)
			break
		}
	}
	delete(w.byGID, g.gid)
	w.router.Remove(g.gid)
	if g.reader == nil {
		return
	}
	pe := w.byProdID[g.prodID]
	if pe == nil {
		return
	}
	for i, x := range pe.members {
		if x == g {
			pe.members = append(pe.members[:i], pe.members[i+1:]...)
			break
		}
	}
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
	for i, x := range w.prods {
		if x == pe {
			w.prods = append(w.prods[:i], w.prods[i+1:]...)
			break
		}
	}
	delete(w.byProdID, pe.id)
	w.router.Remove(pe.id)
}

func (w *worker) run(out chan<- mergeMsg) {
	streamTime := int64(math.MinInt64 / 2)
	w.shardTime = math.MinInt64 / 2
	var emitSeq uint64

	gather := func(flush bool) []pendingMatch {
		w.round++
		batch := getMatchBatch()
		for _, s := range w.slots {
			g := s.g
			if g.quarantined {
				continue
			}
			if g.round != w.round {
				g.round = w.round
				w.syncGroup(g, flush)
				if g.quarantined {
					// The round panicked: the sink's matches are suspect
					// and die with the group at the sweep.
					continue
				}
				g.taken = g.sink.take()
				g.emitted = false
			}
			if len(g.taken) == 0 {
				continue
			}
			// The first slot of a group delivers the engine's matches as
			// is; further slots (dedupe aliases) get private shallow
			// clones, preserving the exact per-slot emission a private
			// twin engine would have produced.
			clone := g.emitted
			g.emitted = true
			for _, m := range g.taken {
				mm := m
				if clone {
					mm = cloneMatch(m)
				}
				emitSeq++
				batch = append(batch, pendingMatch{end: mm.End, shard: w.id, seq: emitSeq, m: mm, emit: s.emit, id: s.id})
			}
		}
		for _, g := range w.groups {
			if g.round == w.round && g.taken != nil {
				g.sink.recycle(g.taken)
				g.taken = nil
			}
		}
		// Each engine emits in end-time order; interleave the per-slot
		// runs into one sorted batch. seq (assigned in slot order above)
		// breaks end-time ties, so the order is deterministic.
		slices.SortFunc(batch, func(a, b pendingMatch) int {
			if a.end != b.end {
				if a.end < b.end {
					return -1
				}
				return 1
			}
			if a.seq < b.seq {
				return -1
			}
			return 1
		})
		return batch
	}

	for msg := range w.in {
		if msg.ts > streamTime {
			streamTime = msg.ts
		}
		if n := len(msg.events); n > 0 {
			// ingest order: the batch's last event carries its max ts
			if ts := msg.events[n-1].Ts; ts > w.shardTime {
				w.shardTime = ts
			}
		}
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
		var nDeliv uint64
		batches := w.router.Route(msg.events)
		if len(w.prods) > 0 && len(msg.events) > 0 {
			for _, sb := range batches {
				if pe, ok := sb.Payload.(*prodEntry); ok && !pe.quarantined {
					w.feed(sb, pe.prod, faultinject.SiteProducerBatch)
				}
			}
			w.syncProds(msg.events[0].Ts)
		}
		for _, sb := range batches {
			if g, ok := sb.Payload.(*engineGroup); ok && !g.quarantined {
				w.feed(sb, g.eng, faultinject.SiteEngineBatch)
				g.batchDeliv = uint64(len(sb.Events))
				nDeliv += uint64(len(sb.Events))
			}
		}
		if nDeliv > 0 {
			w.delivered.Add(nDeliv)
		}
		// Credit router-level rejects to adaptive engines: an event the
		// router withheld from a group was rejected by every one of its
		// class filters, so the statistics collector can fold it in as a
		// bulk reject — rates and selectivities then describe the
		// unconditioned stream, exactly what an engine that saw every event
		// would have measured (fallback subscriptions receive every event,
		// so their gap is zero by construction).
		if n := uint64(len(msg.events)); n > 0 {
			for _, g := range w.groups {
				if g.adaptive && !g.quarantined && n > g.batchDeliv {
					w.noteRejects(g, n-g.batchDeliv)
				}
				g.batchDeliv = 0
			}
		}
		// Batch release: the events now live in engine buffers; the slice
		// that carried them returns to the shared pool.
		event.PutBatch(msg.events)
		batch := gather(false)
		// Sweep before the watermark probe: it runs MatchHorizon on every
		// remaining group, and a just-quarantined engine's buffers are not
		// safe to read.
		w.sweepQuarantined()

		// The shard watermark: no match this shard later produces can end
		// before it. Future matches either complete on an already buffered
		// unconsumed final-class instance (engine MatchHorizon) or on a
		// future event, whose timestamp is at least the flushed stream
		// time (ingest order is globally non-decreasing).
		wm := streamTime
		for _, g := range w.groups {
			if h := g.eng.MatchHorizon(); h < wm {
				wm = h
			}
		}
		out <- mergeMsg{shard: w.id, matches: batch, watermark: wm, final: false}
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
	// Producers flush first so consumer flushes observe every partial
	// match.
	w.flushProds()
	batch := gather(true)
	out <- mergeMsg{shard: w.id, matches: batch, watermark: math.MaxInt64, final: true}
}

// cloneMatch gives a dedupe alias a private Match header and Fields slice.
// The constituent events (and closure-group slices) inside Fields are
// shared with the original — they are immutable stream data every engine
// already shares.
func cloneMatch(m *core.Match) *core.Match {
	c := *m
	c.Fields = append([]core.Field(nil), m.Fields...)
	return &c
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
func (rt *Runtime) runMerger() {
	defer close(rt.merger)
	n := rt.cfg.Shards
	wms := make([]int64, n)
	for i := range wms {
		wms[i] = math.MinInt64
	}
	var h matchHeap
	var skip map[QueryID]bool // queries whose OnMatch panicked
	var round []pendingMatch  // reused release scratch (zero steady-state allocs)
	finals := 0
	release := func() {
		min := wms[0]
		for _, wm := range wms[1:] {
			if wm < min {
				min = wm
			}
		}
		// Strictly below the watermark: a shard at watermark W may still
		// produce a match ending exactly at W.
		round = round[:0]
		for len(h) > 0 && h[0].end < min {
			pm := h.pop()
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
			if rt.walActive.Load() {
				if rt.noteWALError(rt.wal.WriteEmitWM(wal.EmitWM{End: end, Count: cnt})) != nil {
					// Fail-stop and the watermark did not become durable:
					// delivering now would double-deliver after recovery
					// (replay would not suppress these matches). Drop the
					// round — every constituent event is already durably
					// logged ahead of the engines, so replay rebuilds and
					// delivers these matches itself.
					clear(round)
					return
				}
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
		clear(round)
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
		if msg.final {
			finals++
			if finals == n {
				return
			}
		}
	}
}

package runtime

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/query"
	"repro/internal/router"
)

// snapOp requests a worker-side observability snapshot. It rides the shard
// op queue like registrations, so a snapshot reflects exactly the events of
// every Ingest that returned before the request was sent — per-operator
// counters are plain fields owned by the worker goroutine, and the queue is
// the only safe place to read them. The worker fills result and hands the
// op on to the merger with its batch report; the merger replies once it has
// released what that report allows.
type snapOp struct {
	// gid, when non-zero, selects one engine group for a full EXPLAIN
	// capture; zero captures only the per-group totals (metrics scrape).
	gid int64
	// prodID, when non-zero, additionally captures that producer's
	// operator tree (shared-prefix consumer EXPLAIN).
	prodID int64
	// reply must be buffered with capacity >= the shard count so the
	// merger never blocks on it.
	reply  chan<- shardSnap
	result shardSnap
}

// groupTotals is one engine group's whole-tree counter roll-up.
type groupTotals struct {
	gid    int64
	totals explain.Totals
}

// prodTotals is one shared-subplan producer's counter roll-up.
type prodTotals struct {
	id      int64
	totals  explain.Totals
	readers int
	events  uint64
}

// shardSnap is one worker's reply to a snapOp.
type shardSnap struct {
	shard       int
	routerStats router.Stats
	// rangeEntries is the shard router's live sorted-threshold entry count.
	rangeEntries int
	groups       []groupTotals
	prods        []prodTotals

	// EXPLAIN capture (snapOp.gid != 0):
	found       bool
	info        core.ExplainInfo
	sub         *router.SubInfo
	prodTree    *explain.Node
	prodReaders int
}

// snapshot serves one snapOp on the worker goroutine.
func (w *worker) snapshot(op *snapOp) {
	w.settle() // idle engines' clocks (and consumers' aged-out prefix records) first
	s := shardSnap{shard: w.id}
	s.routerStats = w.router.Stats()
	s.rangeEntries = w.router.RangeTableSize()
	for _, g := range w.groups {
		s.groups = append(s.groups, groupTotals{gid: g.gid, totals: g.eng.OperatorTotals()})
	}
	for _, pe := range w.prods {
		s.prods = append(s.prods, prodTotals{
			id:      pe.id,
			totals:  explain.TreeTotals(pe.prod.Plan().Root),
			readers: pe.prod.Readers(),
			events:  pe.prod.Events(),
		})
	}
	if op.gid != 0 {
		if g, ok := w.byGID[op.gid]; ok {
			s.found = true
			s.info = g.eng.BuildExplain()
			if si, ok := w.router.Describe(op.gid); ok {
				s.sub = &si
			}
		}
		if op.prodID != 0 {
			if pe, ok := w.byProdID[op.prodID]; ok {
				s.prodTree = explain.Tree(pe.prod.Plan().Root)
				s.prodReaders = pe.prod.Readers()
			}
		}
	}
	op.result = s
}

// snap broadcasts a snapOp to every shard (flushing pending ingest batches
// first, so the snapshot covers them) and collects the replies indexed by
// shard. The replies come from the merger, after it released every match
// the shards' snapshot-time watermarks allow: when snap returns, each such
// match's OnMatch has returned and MatchesDelivered counts it. So snap must
// not run inside an OnMatch callback, which would wait on itself. Must be
// called with mu held; returns with mu released.
func (rt *Runtime) snap(gid, prodID int64) []shardSnap {
	ts := rt.lastTs // captured under mu: the op closure runs unlocked
	reply := make(chan shardSnap, rt.cfg.Shards)
	rt.sendLocked(func(int) shardMsg {
		return shardMsg{ts: ts, snap: &snapOp{gid: gid, prodID: prodID, reply: reply}}
	})
	rt.mu.Unlock()
	// No reply waits on an exited merger: a Close or simulated crash that
	// races this call closes the worker queues behind the snapshot ops, a
	// worker reports each op before its final message, and the merger
	// exits only after every shard's final one.
	snaps := make([]shardSnap, rt.cfg.Shards)
	for range snaps {
		s := <-reply
		snaps[s.shard] = s
	}
	return snaps
}

// Explain assembles the zstream-explain/v1 document for a live query. The
// snapshot request rides the worker op queues, so the counters it reports
// cover exactly the events whose Ingest returned before the call; per-shard
// sections are merged by plan fingerprint (shards that adapted onto
// different plans appear as separate plan variants).
func (rt *Runtime) Explain(id QueryID) (*explain.Doc, error) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil, ErrClosed
	}
	if rt.faults.dirty.Load() {
		rt.reapFaultsLocked(true)
	}
	reg, ok := rt.live[id]
	if !ok {
		rt.mu.Unlock()
		return nil, &UnknownQueryError{ID: id}
	}
	if reg.quarantined {
		rt.mu.Unlock()
		if f := rt.faults.get(id); f != nil {
			return nil, &QueryFaultError{Fault: *f}
		}
		return nil, ErrQuarantined
	}
	gs := rt.groups[reg.key]
	q := gs.engines[0].Query()
	gid, members, consumer := gs.gid, gs.members, gs.consumer
	var prodID int64
	prefixLen := 0
	if consumer {
		prodID = rt.prefixes[gs.prefixKey].prodID
		prefixLen = core.SharedPrefixLen(q, reg.key.cfg)
	}
	snaps := rt.snap(gid, prodID) // releases mu
	return rt.assembleDoc(id, q, gid, members, consumer, prodID, prefixLen, snaps), nil
}

// assembleDoc merges per-shard snapshots into one document.
func (rt *Runtime) assembleDoc(id QueryID, q *query.Query, gid int64, members int,
	consumer bool, prodID int64, prefixLen int, snaps []shardSnap) *explain.Doc {
	doc := &explain.Doc{Version: explain.Version, QueryID: int64(id), Query: explain.QuerySection(q)}

	var variants []explain.PlanVariant
	byFP := map[string]int{}
	var first *core.ExplainInfo
	leafSeen := make([]uint64, len(q.Info.Classes))
	leafPassed := make([]uint64, len(q.Info.Classes))
	for shard := range snaps {
		s := &snaps[shard]
		if !s.found {
			continue
		}
		if first == nil {
			first = &s.info
		}
		if i, ok := byFP[s.info.Fingerprint]; ok {
			v := &variants[i]
			v.Shards = append(v.Shards, shard)
			v.Switches += s.info.Switches
			explain.Merge(v.Tree, s.info.Tree)
		} else {
			byFP[s.info.Fingerprint] = len(variants)
			variants = append(variants, explain.PlanVariant{
				Fingerprint: s.info.Fingerprint,
				Shards:      []int{shard},
				Switches:    s.info.Switches,
				LastSwitch:  s.info.LastSwitch,
				Tree:        s.info.Tree,
			})
		}
		for ci, c := range s.info.Leaves {
			if ci < len(leafSeen) {
				leafSeen[ci] += c.In
				leafPassed[ci] += c.Out
			}
		}
	}
	if first != nil {
		doc.Strategy = first.Strategy
		doc.Cost = first.Cost
	}
	doc.Plans = variants

	sh := &explain.Sharing{GroupID: gid, Members: members}
	if consumer {
		sh.PrefixLen = prefixLen
		sh.ProducerID = prodID
		var pt *explain.Node
		for shard := range snaps {
			s := &snaps[shard]
			if s.prodTree == nil {
				continue
			}
			sh.ProducerReaders = s.prodReaders
			if pt == nil {
				pt = s.prodTree
			} else {
				explain.Merge(pt, s.prodTree)
			}
		}
		sh.ProducerTree = pt
	}
	doc.Sharing = sh

	doc.Router = rt.routerSection(q, snaps, leafSeen, leafPassed)
	if len(variants) > 0 {
		doc.Text = explain.Render(variants[0].Tree)
	}
	return doc
}

// routerSection merges the per-shard subscription views. For shared-prefix
// consumers the subscription covers only the suffix classes (prefix
// admission is delegated to the producer), so prefix classes report zero
// admissions here.
func (rt *Runtime) routerSection(q *query.Query, snaps []shardSnap, leafSeen, leafPassed []uint64) *explain.Router {
	var firstSub *router.SubInfo
	var events uint64
	admitted := make([]uint64, len(q.Info.Classes))
	for shard := range snaps {
		s := &snaps[shard]
		if s.sub == nil {
			continue
		}
		if firstSub == nil {
			firstSub = s.sub
		}
		events += s.sub.Events
		for _, ca := range s.sub.Classes {
			if ca.Class < len(admitted) {
				admitted[ca.Class] += ca.Admitted
			}
		}
	}
	r := &explain.Router{Mode: "indexed", Events: events}
	if firstSub == nil {
		return r
	}
	if firstSub.Fallback {
		r.Mode = "fallback"
		return r
	}
	for _, ca := range firstSub.Classes {
		if ca.Class >= len(q.Info.Classes) {
			continue
		}
		r.Classes = append(r.Classes, explain.RouterClass{
			Class:         q.Info.Classes[ca.Class].Alias,
			EqAtoms:       ca.EqAtoms,
			RangeAtoms:    ca.RangeAtoms,
			Residuals:     ca.Residual,
			Always:        ca.Always,
			Admitted:      admitted[ca.Class],
			AdmissionRate: explain.Ratio(admitted[ca.Class], events),
			LeafSeen:      leafSeen[ca.Class],
			LeafPassed:    leafPassed[ca.Class],
			PassRate:      explain.Ratio(leafPassed[ca.Class], leafSeen[ca.Class]),
		})
	}
	return r
}

// QueryMetrics is one live query's counter snapshot. Queries aliased onto a
// shared engine group (whole-query dedupe) report the group's physical
// counters, so summing rows over-counts shared work — group rows can be
// deduplicated by GroupID.
type QueryMetrics struct {
	// ID is the query handle; GroupID the engine group executing it.
	ID QueryID
	// GroupID is the engine group; Members how many queries alias it.
	GroupID int64
	Members int
	// Engine sums the group's per-shard engine counters.
	Engine core.EngineStats
	// Operators sums the group's per-shard operator-tree counters.
	Operators explain.Totals
}

// ProducerMetrics is one live shared-subplan producer's counter snapshot.
type ProducerMetrics struct {
	// ID is the producer's (negative) identifier.
	ID int64
	// Readers is the consumer-group count (max across shards, which all
	// agree in steady state).
	Readers int
	// Events counts events the producer processed, summed across shards.
	Events uint64
	// Operators sums the producer's per-shard operator-tree counters.
	Operators explain.Totals
}

// RouterMetrics sums the per-shard router counters.
type RouterMetrics struct {
	// Events counts routed events (each event once per shard it reached).
	Events uint64
	// Deliveries counts (subscriber, event) pairs yielded.
	Deliveries uint64
	// ResidualEvals counts deduplicated residual predicate evaluations.
	ResidualEvals uint64
	// RangeProbes counts sorted-threshold table stabs (one binary search
	// per populated direction per event per range-dispatched attribute).
	RangeProbes uint64
	// RangeTableEntries is the live sorted-threshold entry count summed
	// across shards and cached schema tables (a gauge, not a counter).
	RangeTableEntries uint64
}

// Metrics is a consistent runtime-wide observability snapshot: the
// aggregate Stats plus per-query, per-producer and router detail. The
// per-operator counters are captured through the worker op queues, so they
// cover exactly the events whose Ingest returned before the call.
type Metrics struct {
	// Stats is the runtime aggregate (same as Runtime.Stats).
	Stats Stats
	// Router sums router counters across shards.
	Router RouterMetrics
	// Queries holds one row per live query, sorted by ID.
	Queries []QueryMetrics
	// Producers holds one row per live shared-subplan producer, sorted by
	// ID.
	Producers []ProducerMetrics
}

// Metrics captures an observability snapshot. After Close it returns the
// final aggregate Stats with no per-query detail (the workers are gone).
// Stats is read after the shard snapshots return, so it covers at least
// every event the routers had seen (Router.Events <= Stats.EventsIngested
// even under a concurrent ingester), and every match the snapshot's
// watermarks release has been delivered (see snap): MatchesDelivered
// equals the OnMatch calls made so far. Not callable from OnMatch.
func (rt *Runtime) Metrics() Metrics {
	rt.mu.Lock()
	if !rt.closed && rt.faults.dirty.Load() {
		rt.reapFaultsLocked(true) // drops mu: check closed after it
	}
	if rt.closed {
		rt.mu.Unlock()
		return Metrics{Stats: rt.Stats()}
	}
	type liveQ struct {
		id      QueryID
		gid     int64
		members int
		engines []*core.Engine
	}
	var qs []liveQ
	for id, reg := range rt.live {
		if reg.quarantined {
			continue // the group is gone; the fault plane covers it
		}
		gs := rt.groups[reg.key]
		qs = append(qs, liveQ{id: id, gid: gs.gid, members: gs.members, engines: gs.engines})
	}
	snaps := rt.snap(0, 0) // releases mu
	m := Metrics{Stats: rt.Stats()}

	byGID := map[int64]explain.Totals{}
	prods := map[int64]*ProducerMetrics{}
	for shard := range snaps {
		s := &snaps[shard]
		m.Router.Events += s.routerStats.Events
		m.Router.Deliveries += s.routerStats.Deliveries
		m.Router.ResidualEvals += s.routerStats.ResidualEvals
		m.Router.RangeProbes += s.routerStats.RangeProbes
		m.Router.RangeTableEntries += uint64(s.rangeEntries)
		for _, gt := range s.groups {
			t := byGID[gt.gid]
			t.Add(gt.totals)
			byGID[gt.gid] = t
		}
		for _, pt := range s.prods {
			pm := prods[pt.id]
			if pm == nil {
				pm = &ProducerMetrics{ID: pt.id}
				prods[pt.id] = pm
			}
			pm.Events += pt.events
			pm.Operators.Add(pt.totals)
			if pt.readers > pm.Readers {
				pm.Readers = pt.readers
			}
		}
	}
	for _, lq := range qs {
		qm := QueryMetrics{ID: lq.id, GroupID: lq.gid, Members: lq.members, Operators: byGID[lq.gid]}
		for _, e := range lq.engines {
			qm.Engine.Add(e.Snapshot())
		}
		m.Queries = append(m.Queries, qm)
	}
	slices.SortFunc(m.Queries, func(a, b QueryMetrics) int { return int(a.ID - b.ID) })
	for _, pm := range prods {
		m.Producers = append(m.Producers, *pm)
	}
	slices.SortFunc(m.Producers, func(a, b ProducerMetrics) int { return int(a.ID - b.ID) })
	return m
}

// LiveQueries returns the live query handles, sorted.
func (rt *Runtime) LiveQueries() []QueryID {
	rt.mu.Lock()
	ids := make([]QueryID, 0, len(rt.live))
	for id := range rt.live {
		ids = append(ids, id)
	}
	rt.mu.Unlock()
	slices.Sort(ids)
	return ids
}

// WriteMetrics renders a Metrics snapshot in Prometheus text exposition
// format (version 0.0.4) to w.
func (rt *Runtime) WriteMetrics(w io.Writer) error {
	return rt.Metrics().WritePrometheus(w)
}

// promWriter accumulates the first write error so metric emission reads
// linearly.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) family(name, help, typ string) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
}

func (p *promWriter) val(name, labels string, v uint64) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, "%s%s %d\n", name, labels, v)
	}
}

// WritePrometheus renders the snapshot in Prometheus text exposition format
// (hand-rolled; counters end in _total, gauges do not).
func (m Metrics) WritePrometheus(w io.Writer) error {
	p := &promWriter{w: w}

	p.family("zstream_shards", "Worker shard count.", "gauge")
	p.val("zstream_shards", "", uint64(m.Stats.Shards))
	p.family("zstream_live_queries", "Registered queries.", "gauge")
	p.val("zstream_live_queries", "", uint64(m.Stats.LiveQueries))
	p.family("zstream_engine_groups", "Distinct physical engine groups.", "gauge")
	p.val("zstream_engine_groups", "", uint64(m.Stats.EngineGroups))
	p.family("zstream_shared_subplans", "Live shared-prefix producers.", "gauge")
	p.val("zstream_shared_subplans", "", uint64(m.Stats.SharedSubplans))
	p.family("zstream_shared_prefix_consumers", "Engine groups reading a shared producer.", "gauge")
	p.val("zstream_shared_prefix_consumers", "", uint64(m.Stats.SharedPrefixConsumers))
	p.family("zstream_events_ingested_total", "Events accepted by Ingest.", "counter")
	p.val("zstream_events_ingested_total", "", m.Stats.EventsIngested)
	p.family("zstream_matches_delivered_total", "Matches delivered by the merger.", "counter")
	p.val("zstream_matches_delivered_total", "", m.Stats.MatchesDelivered)
	p.family("zstream_engine_deliveries_total", "(engine, event) deliveries across shards.", "counter")
	p.val("zstream_engine_deliveries_total", "", m.Stats.EngineDeliveries)
	p.family("zstream_shard_rounds_total", "Batch-boundary engine rounds run (groups that got events or owed a round), per shard.", "counter")
	for i, n := range m.Stats.RoundsByShard {
		p.val("zstream_shard_rounds_total", fmt.Sprintf(`{shard="%d"}`, i), n)
	}

	p.family("zstream_quarantined_queries", "Registered queries quarantined by a contained fault.", "gauge")
	p.val("zstream_quarantined_queries", "", uint64(m.Stats.QuarantinedQueries))
	p.family("zstream_query_faults_total", "Contained query faults recorded (engine dispatch or OnMatch panics).", "counter")
	p.val("zstream_query_faults_total", "", m.Stats.Faults)
	p.family("zstream_ingest_shed_events_total", "Events shed at the ingest queue boundary (expired deadline or failed WAL append), per shard.", "counter")
	for i, n := range m.Stats.ShedByShard {
		p.val("zstream_ingest_shed_events_total", fmt.Sprintf(`{shard="%d"}`, i), n)
	}

	if m.Stats.WALEnabled {
		p.family("zstream_wal_errors_total", "WAL append/fsync/checkpoint failures recorded.", "counter")
		p.val("zstream_wal_errors_total", "", m.Stats.WALErrors)
		p.family("zstream_wal_appended_events_total", "Events made durable in the write-ahead log.", "counter")
		p.val("zstream_wal_appended_events_total", "", m.Stats.WAL.AppendedEvents)
		p.family("zstream_wal_fsyncs_total", "fsync calls issued by the WAL writer.", "counter")
		p.val("zstream_wal_fsyncs_total", "", m.Stats.WAL.Fsyncs)
		p.family("zstream_wal_segments_total", "Segment files opened by the WAL writer.", "counter")
		p.val("zstream_wal_segments_total", "", m.Stats.WAL.Segments)
		p.family("zstream_wal_truncated_bytes_total", "Torn-tail bytes truncated during recovery scans.", "counter")
		p.val("zstream_wal_truncated_bytes_total", "", uint64(m.Stats.WALTruncatedBytes))
	}

	p.family("zstream_router_events_total", "Events classified by the per-shard routers.", "counter")
	p.val("zstream_router_events_total", "", m.Router.Events)
	p.family("zstream_router_deliveries_total", "(subscriber, event) pairs yielded by the routers.", "counter")
	p.val("zstream_router_deliveries_total", "", m.Router.Deliveries)
	p.family("zstream_router_residual_evals_total", "Deduplicated residual predicate evaluations.", "counter")
	p.val("zstream_router_residual_evals_total", "", m.Router.ResidualEvals)
	p.family("zstream_router_range_probes_total", "Sorted-threshold table stabs (binary searches) by the routers.", "counter")
	p.val("zstream_router_range_probes_total", "", m.Router.RangeProbes)
	p.family("zstream_router_range_table_entries", "Live sorted-threshold entries across shard routers and cached schema tables.", "gauge")
	p.val("zstream_router_range_table_entries", "", m.Router.RangeTableEntries)

	ql := func(q QueryMetrics) string {
		return fmt.Sprintf(`{query="%d",group="%d"}`, q.ID, q.GroupID)
	}
	p.family("zstream_query_events_total", "Events processed by the query's engine group.", "counter")
	for _, q := range m.Queries {
		p.val("zstream_query_events_total", ql(q), q.Engine.Events)
	}
	p.family("zstream_query_matches_total", "Matches emitted by the query's engine group.", "counter")
	for _, q := range m.Queries {
		p.val("zstream_query_matches_total", ql(q), q.Engine.Matches)
	}
	p.family("zstream_query_rounds_total", "Assembly rounds run by the query's engine group.", "counter")
	for _, q := range m.Queries {
		p.val("zstream_query_rounds_total", ql(q), q.Engine.Rounds)
	}
	p.family("zstream_query_plan_switches_total", "Adaptive plan switches by the query's engine group.", "counter")
	for _, q := range m.Queries {
		p.val("zstream_query_plan_switches_total", ql(q), q.Engine.PlanSwitches)
	}
	p.family("zstream_query_peak_mem_bytes", "Summed per-shard peak buffer bytes.", "gauge")
	for _, q := range m.Queries {
		p.val("zstream_query_peak_mem_bytes", ql(q), uint64(q.Engine.PeakMemBytes))
	}
	p.family("zstream_query_records_in_total", "Candidates examined across the query's operator trees.", "counter")
	for _, q := range m.Queries {
		p.val("zstream_query_records_in_total", ql(q), q.Operators.In)
	}
	p.family("zstream_query_records_out_total", "Records emitted across the query's operator trees.", "counter")
	for _, q := range m.Queries {
		p.val("zstream_query_records_out_total", ql(q), q.Operators.Out)
	}
	p.family("zstream_query_buffered_records", "Live records buffered by the query's operator trees.", "gauge")
	for _, q := range m.Queries {
		p.val("zstream_query_buffered_records", ql(q), uint64(q.Operators.Buffered))
	}
	p.family("zstream_query_evicted_records_total", "Records reclaimed by EAT eviction.", "counter")
	for _, q := range m.Queries {
		p.val("zstream_query_evicted_records_total", ql(q), q.Operators.Evicted)
	}

	pl := func(pm ProducerMetrics) string { return fmt.Sprintf(`{producer="%d"}`, pm.ID) }
	p.family("zstream_producer_readers", "Consumer groups attached to the producer.", "gauge")
	for _, pm := range m.Producers {
		p.val("zstream_producer_readers", pl(pm), uint64(pm.Readers))
	}
	p.family("zstream_producer_events_total", "Events processed by the producer.", "counter")
	for _, pm := range m.Producers {
		p.val("zstream_producer_events_total", pl(pm), pm.Events)
	}
	p.family("zstream_producer_records_out_total", "Records the producer appended to shared buffers.", "counter")
	for _, pm := range m.Producers {
		p.val("zstream_producer_records_out_total", pl(pm), pm.Operators.Out)
	}
	p.family("zstream_producer_buffered_records", "Live records in the producer's shared buffers.", "gauge")
	for _, pm := range m.Producers {
		p.val("zstream_producer_buffered_records", pl(pm), uint64(pm.Operators.Buffered))
	}
	return p.err
}

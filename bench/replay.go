package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/wal"
)

// replica is a single-goroutine copy of one runtime flush cycle, built from
// the layers' public functions only, so that each layer's share of an
// event's cost can be timed from outside. It mirrors
// internal/runtime/runtime.go's registerLocked (prefix families: the first
// registrant runs its prefix privately, later ones consume one producer per
// shard) and internal/runtime/worker.go's run loop (route, producers feed
// and assemble, engines feed, a SyncAt round on every engine, a
// MatchHorizon sweep). What it cannot call from outside — queues, locks,
// the gather sort, the merge heap, checkpoints, emit watermarks — is left
// out and ends up in runtime.glue_ns_per_event.
//
// It does not model whole-query dedupe; the workloads hold no two equal
// queries, and newReplica refuses a set that does.
type replica struct {
	shards  []*replicaShard
	log     *wal.Writer // nil unless the workload is durable
	tr      *tracer
	seq     uint64
	pending []*event.Event
	batches int64
	matches int64
	onMatch func(*core.Match)
	calls   replicaCalls
}

// replicaCalls counts the calls made into the layers, the denominators of
// the per-round and per-delivery metrics.
type replicaCalls struct {
	syncRounds, deliveries, prodDeliveries, prodRounds int64
}

type replicaShard struct {
	router    *router.Router
	groups    []*replicaGroup
	prods     []*replicaProd
	events    []*event.Event
	shardTime int64
}

type replicaGroup struct {
	eng      *core.Engine
	adaptive bool
	deliv    uint64
}

type replicaProd struct {
	sub     *core.Subplan
	members []*replicaGroup
}

// replicaBatch is runtime.Config's default BatchSize.
const replicaBatch = 256

// newReplica registers queries on nShards replica shards exactly as
// Runtime.Register would before any event is ingested. onMatch (may be nil)
// sees every match; walDir, when not empty, puts a write-ahead log with
// fsync off in front, as alerts-1k-wal does.
func newReplica(queries []*query.Query, cfg core.Config, nShards int, walDir string, tr *tracer, onMatch func(*core.Match)) (*replica, error) {
	r := &replica{tr: tr, onMatch: onMatch}
	for i := 0; i < nShards; i++ {
		r.shards = append(r.shards, &replicaShard{router: router.New(), shardTime: math.MinInt64 / 2})
	}
	if walDir != "" {
		w, err := wal.NewWriter(wal.Options{Dir: walDir, Fsync: wal.FsyncOff},
			wal.Meta{Shards: nShards, PartitionBy: "name"}, 1)
		if err != nil {
			return nil, err
		}
		r.log = w
	}
	emit := func(m *core.Match) {
		r.matches++
		if r.onMatch != nil {
			r.onMatch(m)
		}
	}

	type family struct {
		members int
		prods   []*replicaProd // one per shard, nil until the second member
		info    *query.Info
		id      int64
	}
	families := map[string]*family{}
	seen := map[string]bool{}
	var nextProd int64
	for qi, q := range queries {
		if fp, ok := query.FingerprintQuery(q); ok {
			if seen[fp] {
				return nil, fmt.Errorf("replica: query %d duplicates an earlier one; dedupe is not modelled", qi)
			}
			seen[fp] = true
		}
		id := int64(qi + 1)
		var fam *family
		k := core.SharedPrefixLen(q, cfg)
		if k > 0 {
			if pfp, ok := query.PrefixFingerprint(q, k); ok {
				if fam = families[pfp]; fam == nil {
					fam = &family{}
					families[pfp] = fam
				}
				fam.members++
			}
		}
		consumer := fam != nil && fam.members > 1
		if consumer && fam.prods == nil {
			pq, err := query.PrefixQuery(q, k)
			if err != nil {
				return nil, err
			}
			nextProd--
			fam.id, fam.info = nextProd, pq.Info
			for _, sh := range r.shards {
				sub, err := core.NewSubplan(pq, cfg.UseHash)
				if err != nil {
					return nil, err
				}
				p := &replicaProd{sub: sub}
				sh.prods = append(sh.prods, p)
				sh.router.Add(fam.id, fam.info, p)
				fam.prods = append(fam.prods, p)
			}
		}
		for si, sh := range r.shards {
			g := &replicaGroup{}
			info := q.Info
			var err error
			if consumer {
				g.eng, err = core.NewEngineSharedPrefix(q, cfg, k, emit)
				if err == nil {
					p := fam.prods[si]
					g.eng.ConnectSharedPrefix(p.sub.Attach(0))
					p.members = append(p.members, g)
					// suffix-only subscription, as registerLocked builds it
					info = &query.Info{Classes: q.Info.Classes[k:], Preds: q.Info.Preds}
				}
			} else {
				g.eng, err = core.NewEngine(q, cfg, emit)
			}
			if err != nil {
				return nil, err
			}
			g.adaptive = g.eng.IsAdaptive()
			sh.groups = append(sh.groups, g)
			sh.router.Add(id, info, g)
		}
	}
	return r, nil
}

// shardOf splits by the partition key. Any fixed split gives the runtime's
// match set, because every workload binds all classes of a query to one
// key value.
func (r *replica) shardOf(ev *event.Event) int {
	if len(r.shards) == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(ev.Vals[1].S))
	return int(h.Sum32() % uint32(len(r.shards)))
}

// Ingest buffers one event and runs a flush cycle per replicaBatch events.
func (r *replica) Ingest(ev *event.Event) error {
	r.seq++
	ev.Seq = r.seq
	r.pending = append(r.pending, ev)
	if len(r.pending) >= replicaBatch {
		return r.flush()
	}
	return nil
}

// flush is one ingest flush plus every shard's handling of it. Each call
// into a layer is one span under the batch span.
func (r *replica) flush() error {
	tr := r.tr
	batch := tr.begin("batch", -1, r.batches)
	stage := func(name string) int32 { return tr.begin(name, batch, r.batches) }
	r.batches++

	if r.log != nil {
		s := stage("wal.append")
		err := r.log.AppendBatch(r.pending)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	s := stage("runtime.split")
	for _, ev := range r.pending {
		sh := r.shards[r.shardOf(ev)]
		sh.events = append(sh.events, ev)
	}
	tr.end(s)
	clear(r.pending)
	r.pending = r.pending[:0]

	for _, sh := range r.shards {
		evs := sh.events
		if n := len(evs); n > 0 && evs[n-1].Ts > sh.shardTime {
			sh.shardTime = evs[n-1].Ts
		}
		s = stage("router.route")
		subs := sh.router.Route(evs)
		tr.end(s)

		if len(sh.prods) > 0 && len(evs) > 0 {
			s = stage("subplan.feed")
			for _, sb := range subs {
				if p, ok := sb.Payload.(*replicaProd); ok {
					for _, d := range sb.Events {
						p.sub.ProcessAdmitted(d.Ev, d.Mask)
					}
					r.calls.prodDeliveries += int64(len(sb.Events))
				}
			}
			tr.end(s)
			s = stage("subplan.assemble")
			for _, p := range sh.prods {
				p.sub.Assemble(p.horizon(), evs[0].Ts)
			}
			r.calls.prodRounds += int64(len(sh.prods))
			tr.end(s)
		}

		s = stage("core.feed")
		for _, sb := range subs {
			if g, ok := sb.Payload.(*replicaGroup); ok {
				for _, d := range sb.Events {
					g.eng.ProcessAdmitted(d.Ev, d.Mask)
				}
				g.deliv = uint64(len(sb.Events))
				r.calls.deliveries += int64(len(sb.Events))
			}
		}
		if n := uint64(len(evs)); n > 0 {
			for _, g := range sh.groups {
				if g.adaptive && n > g.deliv {
					g.eng.NoteRouterRejects(n-g.deliv, sh.shardTime)
				}
				g.deliv = 0
			}
		}
		tr.end(s)

		s = stage("core.sync")
		for _, g := range sh.groups {
			g.eng.SyncAt(sh.shardTime)
		}
		r.calls.syncRounds += int64(len(sh.groups))
		tr.end(s)

		s = stage("core.horizon")
		wm := int64(math.MaxInt64)
		for _, g := range sh.groups {
			if h := g.eng.MatchHorizon(); h < wm {
				wm = h
			}
		}
		tr.end(s)

		clear(sh.events)
		sh.events = sh.events[:0]
	}
	tr.end(batch)
	return nil
}

func (p *replicaProd) horizon() int64 {
	h := int64(math.MaxInt64)
	for _, g := range p.members {
		if mh := g.eng.MatchHorizon(); mh < h {
			h = mh
		}
	}
	return h
}

// Close flushes the partial batch and every producer and engine, as the
// runtime's Close does, so the match count covers the whole prefix.
func (r *replica) Close() error {
	if err := r.flush(); err != nil {
		return err
	}
	for _, sh := range r.shards {
		for _, p := range sh.prods {
			p.sub.Flush(p.horizon())
		}
		for _, g := range sh.groups {
			g.eng.Flush()
		}
	}
	if r.log != nil {
		return r.log.Close()
	}
	return nil
}

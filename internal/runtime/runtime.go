package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	stdruntime "runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/wal"
)

// QueryID identifies a registered query within one Runtime.
type QueryID int64

// Errors returned by Runtime methods.
var (
	// ErrClosed is returned by Ingest/Register/Unregister after Close.
	ErrClosed = errors.New("runtime: closed")
	// ErrOutOfOrder is returned by Ingest for an event whose timestamp
	// precedes an already ingested one.
	ErrOutOfOrder = errors.New("runtime: event timestamps must be non-decreasing")
	// ErrUnknownQuery is returned by Unregister for an id that is not live.
	ErrUnknownQuery = errors.New("runtime: unknown query id")
)

// UnknownQueryError carries the id Unregister or Explain did not find. It
// matches ErrUnknownQuery under errors.Is.
type UnknownQueryError struct {
	ID QueryID
}

func (e *UnknownQueryError) Error() string {
	return fmt.Sprintf("runtime: unknown query id %d", e.ID)
}

// Is reports target == ErrUnknownQuery so errors.Is works unwrapped.
func (e *UnknownQueryError) Is(target error) bool { return target == ErrUnknownQuery }

// OutOfOrderError carries the regressing timestamp Ingest rejected and the
// stream time it regressed behind. It matches ErrOutOfOrder under
// errors.Is.
type OutOfOrderError struct {
	// Ts is the rejected event's timestamp; Last the largest timestamp
	// already ingested.
	Ts, Last int64
}

func (e *OutOfOrderError) Error() string {
	return fmt.Sprintf("runtime: event timestamps must be non-decreasing: got ts %d after %d", e.Ts, e.Last)
}

// Is reports target == ErrOutOfOrder so errors.Is works unwrapped.
func (e *OutOfOrderError) Is(target error) bool { return target == ErrOutOfOrder }

// Config tunes a Runtime.
type Config struct {
	// Shards is the number of worker goroutines (and stream partitions).
	// Default GOMAXPROCS(0).
	Shards int
	// PartitionBy names the event attribute whose value routes an event to
	// a shard. Default "name" (the paper's stock symbol). Events lacking
	// the attribute hash the null value and all land in one shard.
	PartitionBy string
	// BatchSize is the number of events the ingest side accumulates
	// (across all shards) before flushing one batch per shard to the
	// workers. Default 256.
	BatchSize int
	// QueueLen is the per-worker input queue depth in batches; when a
	// worker falls behind, Ingest blocks once its queue is full
	// (backpressure). Default 8.
	QueueLen int
	// Durability, when non-nil, enables the write-ahead event log and
	// batch-boundary checkpoints (see DurConfig). Durable runtimes are
	// constructed with NewDurable, which also performs crash recovery;
	// New ignores this field.
	Durability *DurConfig

	// test holds the in-package suites' switches; production code cannot
	// set it, so every runtime outside this package's tests runs routed,
	// range-dispatched, shared and uninjected.
	test testHooks
}

// testHooks selects the reference configurations the differential, chaos,
// fuzz and durable suites compare the production configuration against.
// Each switch is semantics-preserving: transcripts must be byte-identical
// with it on or off.
type testHooks struct {
	// naiveFanout subscribes every engine group and producer to the router
	// with no predicates, so each receives every shard event unproven
	// (router.MaskAll): deliver-to-all, the reference the routed path is
	// checked against.
	naiveFanout bool
	// noRangeDispatch interns range atoms (`attr > const` etc.) as residual
	// predicates instead of compiling them into sorted-threshold tables.
	noRangeDispatch bool
	// noSharing gives every registration a private engine group: no
	// whole-query dedupe, no shared-subplan prefixes.
	noSharing bool
	// injector threads the deterministic fault-injection harness through
	// every worker dispatch boundary, the merger's emit path and the WAL
	// writer; nil costs one nil check per dispatch.
	injector *faultinject.Injector
	// poison overwrites every match the merger recycles and keeps it out
	// of the pool, so a callback that kept its match reads poisonEnd.
	poison bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = stdruntime.GOMAXPROCS(0)
	}
	if c.PartitionBy == "" {
		c.PartitionBy = "name"
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 8
	}
	return c
}

// Stats aggregates runtime counters. Engine sums the per-shard engine
// snapshots of every query ever registered (PeakMemBytes sums per-engine
// peaks, an upper bound on the true simultaneous peak).
type Stats struct {
	Shards      int
	LiveQueries int
	// EngineGroups counts distinct physical engine groups: with whole-
	// query dedupe, textually identical queries share one group, so
	// LiveQueries - EngineGroups is the number of aliased (free-riding)
	// queries.
	EngineGroups int
	// SharedSubplans counts live shared-prefix producers (one logical
	// producer per prefix family; each is instantiated on every shard).
	// SharedPrefixConsumers is the number of engine groups reading them
	// instead of buffering and joining their prefix privately.
	SharedSubplans        int
	SharedPrefixConsumers int
	// QuarantinedQueries counts registered queries removed from execution
	// by a contained fault (not included in LiveQueries); Faults counts
	// fault records ever made, including quarantined queries since
	// unregistered. See Runtime.Faults for the records themselves.
	QuarantinedQueries int
	Faults             uint64
	// EventsShed counts events dropped at the ingest queue boundary by an
	// expired ingest/drain deadline or a failed write-ahead append, never
	// reaching their shard; ShedByShard breaks the count down per shard.
	EventsShed       uint64
	ShedByShard      []uint64
	EventsIngested   uint64
	MatchesDelivered uint64
	// EngineDeliveries counts (engine, event) deliveries across all
	// shards. The naive path delivers every event to every live engine;
	// the router only to engines with at least one admitting class, so
	// EngineDeliveries / EventsIngested is the effective fan-out.
	EngineDeliveries uint64
	// RoundsByShard counts, per shard, the batch-boundary engine rounds the
	// worker actually ran: one per engine group per batch in which the
	// group got events or still owed a round (finite match horizon,
	// adaptive statistics, undrained shared-prefix records). Idle
	// registrations add nothing, so rounds / batches is the touched set's
	// size, not the registered set's.
	RoundsByShard []uint64
	Engine        core.EngineStats
	// WALEnabled reports whether the write-ahead log is configured (a WAL
	// failure does not clear it: the runtime fails stop); WALErrors counts
	// WAL failures observed, WALSuppressed the replayed matches withheld at
	// or below the recovered emit watermark, and WALTruncatedBytes the torn
	// tail recovery cut from the log. WAL aggregates the writer's own
	// counters (appends, fsyncs, segments, pruning).
	WALEnabled        bool
	WALErrors         uint64
	WALSuppressed     uint64
	WALTruncatedBytes int64
	WAL               wal.WriterStats
}

// registered tracks one live query: which engine group it belongs to, and
// whether a contained fault has quarantined it (the group is gone then,
// but the entry stays so Unregister of the dead id still works and a
// re-registration of the same query text gets a fresh group).
type registered struct {
	id          QueryID
	key         groupKey
	quarantined bool
	// src, coreCfg, regSeq and window feed checkpoint records when the
	// durability plane is on: the normalized query text, the engine config
	// it was registered with, the ingest seq at registration, and the
	// WITHIN window in ticks. Zero-valued when durability is off.
	src     string
	coreCfg core.Config
	regSeq  uint64
	window  int64
}

// groupKey identifies an engine group: the whole-query canonical
// fingerprint plus the exact engine configuration. Queries that are not
// canonicalizable get a unique synthetic key, so every group — deduped or
// not — lives in the same registry.
type groupKey struct {
	fp  string
	cfg core.Config
}

// groupState is one engine group: the per-shard physical engines shared by
// every query aliased onto the group, plus the group's role in a prefix-
// sharing family.
type groupState struct {
	gid     int64
	members int
	regSeq  uint64         // ingest sequence stamp at group creation
	engines []*core.Engine // one per shard
	// prefixKey is the canonical prefix fingerprint when the group's query
	// has a shareable prefix ("" otherwise); consumer marks whether the
	// group reads the family's shared producer (vs running the prefix
	// privately as the family's first registrant).
	prefixKey string
	consumer  bool
}

// prefixState tracks one prefix-sharing family: how many live groups run
// the prefix privately (the family's first registrant), how many consume
// the shared producer, and the producer's id — 0 until the first consumer
// registers and creates the per-shard producers (which live on the
// workers), and again once the last consumer leaves.
type prefixState struct {
	prodID    int64
	solos     int
	consumers int
}

// Runtime hosts many queries concurrently over one partitioned stream.
type Runtime struct {
	cfg Config
	// seed keys the partition hash (see shard): defaultPartitionSeed, or the
	// seed a recovered log persisted.
	seed    uint64
	workers []*worker
	mergeCh chan mergeMsg
	merger  chan struct{} // closed when the merger goroutine exits

	ingested    atomic.Uint64
	delivered   atomic.Uint64
	engineDeliv atomic.Uint64
	shed        []atomic.Uint64 // per-shard shed event counts (see shedBatch)

	// faults collects contained panics from workers and the merger; the
	// next mu-holding API call reaps them into the registry (workers
	// never take mu themselves).
	faults *faultSink

	// mu serializes Ingest, Register, Unregister and Close with each
	// other; the per-shard pending batches and registry below are guarded
	// by it. Workers and the merger never take it, and it is NOT held
	// while sending to worker queues — backpressure blocks only sendMu,
	// so Stats stays responsive while a slow shard catches up.
	mu         sync.Mutex
	closed     bool
	nextID     QueryID
	nextProdID int64 // negative, so producer ids never collide with group ids
	live       map[QueryID]*registered
	groups     map[groupKey]*groupState
	prefixes   map[string]*prefixState
	retired    core.EngineStats // folded counters of unregistered queries
	pending    [][]*event.Event
	// pendingSpare is the second outer batch array of the double buffer:
	// sendLocked swaps it in so a flush allocates neither the outer array
	// nor (thanks to event.GetBatch) the per-shard slices.
	pendingSpare [][]*event.Event
	nPend        int
	lastTs       int64
	lastSeq      uint64 // global arrival sequence stamp (see Ingest)

	// sendMu serializes the worker-queue send phases. It is only ever
	// acquired while holding mu (and released after mu is dropped), which
	// keeps send phases in mu-decision order and makes it impossible for
	// a Register/Ingest send to race Close's channel close.
	sendMu sync.Mutex

	// Durability plane (all zero/nil when Config.Durability is off; see
	// durable.go). wal is the write-ahead log writer; walPend mirrors the
	// current flush's events in ingest order, appended as one batch record
	// before the workers see them.
	wal          *wal.Writer
	walPend      []*event.Event
	walErrs      atomic.Uint64
	walFaultsMu  sync.Mutex
	walFaults    []WALFault
	walTruncated int64
	sinceCkpt    int

	// Merger-side exactly-once state: wmEnd/wmCount mirror the durable
	// emit watermark (read by checkpoint assembly); suppressed counts
	// replayed matches withheld at or below the recovered watermark. The
	// sup* fields are the recovery-time suppression cursor, written before
	// the merger can observe any match and then touched only on the merger
	// goroutine. crashing tells workers to skip the final flush (crash
	// simulation test hook).
	wmEnd      atomic.Int64
	wmCount    atomic.Uint64
	suppressed atomic.Uint64
	supEnd     int64
	supCount   uint64
	supSeen    uint64
	supActive  bool
	crashing   atomic.Bool
}

// New creates a Runtime and starts its worker and merger goroutines.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	rt := &Runtime{
		cfg:      cfg,
		seed:     defaultPartitionSeed,
		mergeCh:  make(chan mergeMsg, cfg.Shards*cfg.QueueLen+cfg.Shards),
		merger:   make(chan struct{}),
		live:     map[QueryID]*registered{},
		groups:   map[groupKey]*groupState{},
		prefixes: map[string]*prefixState{},
		pending:  make([][]*event.Event, cfg.Shards),
		lastTs:   math.MinInt64 / 2,
		shed:     make([]atomic.Uint64, cfg.Shards),
		faults:   newFaultSink(),
	}
	rt.pendingSpare = make([][]*event.Event, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		w := &worker{id: i, in: make(chan shardMsg, cfg.QueueLen), delivered: &rt.engineDeliv,
			byGID: map[int64]*engineGroup{}, byProdID: map[int64]*prodEntry{},
			faults: rt.faults, inj: cfg.test.injector, crashing: &rt.crashing, router: router.New()}
		if cfg.test.noRangeDispatch {
			w.router.DisableRangeDispatch()
		}
		rt.workers = append(rt.workers, w)
		go w.run(rt.mergeCh)
	}
	go rt.runMerger()
	return rt
}

// Register adds a query to every shard and returns its id. The per-shard
// engines are constructed synchronously, so a bad query or config fails
// here, before any goroutine sees it; emit (may be nil) then receives the
// query's matches from the merger goroutine in global end-time order. The
// query starts observing events ingested after Register returns.
//
// Registration shares execution with already-live queries where provably
// safe:
//
//   - A query whose canonical fingerprint and engine configuration match a
//     live group is aliased onto that group's engines (whole-query
//     dedupe); its matches are fanned out from the shared engine, byte-
//     identical to what a private engine would have emitted.
//   - A query with a shareable canonical class prefix (core.SharedPrefixLen)
//     joins its prefix family: the family's first registrant runs the
//     prefix privately, and from the second registrant on, one shared
//     subplan per shard materializes the prefix once for all consumers.
func (rt *Runtime) Register(q *query.Query, cfg core.Config, emit func(*core.Match)) (QueryID, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return 0, ErrClosed
	}
	if rt.faults.dirty.Load() {
		// Apply pending quarantines first, so dedupe can never alias the
		// new query onto a faulted group still lingering in the registry.
		rt.reapFaultsLocked(true)
	}
	rt.nextID++
	id, err := rt.registerLocked(rt.nextID, q, cfg, emit)
	if err == nil && rt.wal != nil {
		// A checkpoint at every registration boundary keeps the durable
		// query set current; recovery re-registers at the recorded seq.
		if werr := rt.noteWALError(rt.writeCheckpointLocked()); werr != nil {
			// Fail-stop: the registration itself committed, but the runtime
			// has lost durability — surface it.
			return id, werr
		}
	}
	return id, err
}

// registerLocked is the Register body, taking the id to assign so recovery
// can re-register checkpointed queries under their original ids. Callers
// hold mu.
func (rt *Runtime) registerLocked(id QueryID, q *query.Query, cfg core.Config, emit func(*core.Match)) (QueryID, error) {
	ts := rt.lastTs   // captured under mu: the op closures run unlocked
	seq := rt.lastSeq // registration visibility barrier for shared readers

	key := groupKey{fp: fmt.Sprintf("!unique:%d", id), cfg: cfg}
	if !rt.cfg.test.noSharing {
		if fp, ok := query.FingerprintQuery(q); ok {
			key.fp = fp
		}
	}

	// Whole-query dedupe: alias onto a live identical group — but only a
	// cold one. Aliasing is exact only when the host engines hold no
	// state: a warm engine's buffered window embeds pre-registration
	// events, so its future matches (and, under negation or closure, its
	// suppressions) can differ from what a fresh private engine would
	// produce. regSeq == lastSeq means no event was ingested since the
	// group registered, i.e. its engines are still empty — the common
	// register-the-fleet-then-ingest case always qualifies, and identical
	// queries registered back-to-back mid-stream still collapse.
	if gs := rt.groups[key]; gs != nil {
		if gs.regSeq == rt.lastSeq {
			gs.members++
			rt.live[id] = rt.newRegisteredLocked(id, key, q, cfg, seq)
			rt.sendLocked(func(int) shardMsg {
				return shardMsg{ts: ts, reg: &regOp{id: id, gid: gs.gid, emit: emit, seq: seq}}
			})
			return id, nil
		}
		// A live identical group exists but is warm: the new query gets
		// its own group under a synthetic key, so it never clobbers the
		// live group's registry entry.
		key.fp = fmt.Sprintf("!unique:%d", id)
	}

	// New group. Decide the prefix-sharing role first (without mutating
	// registry state), then construct engines — and producers if this
	// registration creates them — so errors leave the registry untouched.
	prefixKey := ""
	consumer := false
	var ps *prefixState
	var newProds []*core.Subplan
	var prodInfo *query.Info
	var prodID int64
	k := 0
	if !rt.cfg.test.noSharing {
		if k = core.SharedPrefixLen(q, cfg); k > 0 {
			if pfp, ok := query.PrefixFingerprint(q, k); ok {
				prefixKey = pfp
				ps = rt.prefixes[pfp]
				consumer = ps != nil && (ps.prodID != 0 || ps.solos > 0 || ps.consumers > 0)
			}
		}
	}
	if consumer && ps.prodID == 0 {
		pq, err := query.PrefixQuery(q, k)
		if err != nil {
			return 0, fmt.Errorf("runtime: register: %w", err)
		}
		newProds = make([]*core.Subplan, rt.cfg.Shards)
		for i := range newProds {
			sp, err := core.NewSubplan(pq, cfg.UseHash)
			if err != nil {
				return 0, fmt.Errorf("runtime: register: %w", err)
			}
			newProds[i] = sp
		}
		prodInfo = pq.Info
	}

	engines := make([]*core.Engine, rt.cfg.Shards)
	sinks := make([]*matchSink, rt.cfg.Shards)
	for i := range engines {
		s := &matchSink{}
		var eng *core.Engine
		var err error
		if consumer {
			eng, err = core.NewEngineSharedPrefix(q, cfg, k, s.add)
		} else {
			eng, err = core.NewEngine(q, cfg, s.add)
		}
		if err != nil {
			return 0, fmt.Errorf("runtime: register: %w", err)
		}
		engines[i], sinks[i] = eng, s
	}

	// Commit registry state.
	if prefixKey != "" {
		if ps == nil {
			ps = &prefixState{}
			rt.prefixes[prefixKey] = ps
		}
		if consumer {
			if newProds != nil {
				rt.nextProdID--
				ps.prodID = rt.nextProdID
			}
			ps.consumers++
			prodID = ps.prodID
		} else {
			ps.solos++
		}
	}
	gs := &groupState{gid: int64(id), members: 1, regSeq: seq, engines: engines, prefixKey: prefixKey, consumer: consumer}
	rt.groups[key] = gs
	rt.live[id] = rt.newRegisteredLocked(id, key, q, cfg, seq)

	prods := newProds
	routerInfo := q.Info
	if consumer {
		// A consumer's prefix admission is fully delegated to the shared
		// producer (which subscribes with exactly the prefix predicates),
		// and its shadow leaves would discard prefix deliveries anyway: a
		// suffix-only subscription keeps prefix-only events from touching
		// the consumer's engine at all. ClassInfo.Idx values are retained,
		// so admission masks still align with the full plan's class bits.
		routerInfo = &query.Info{Classes: q.Info.Classes[k:], Preds: q.Info.Preds}
	}
	if rt.cfg.test.naiveFanout {
		// Deliver-to-all reference: subscribe group and producer without
		// predicates (router.Add's nil-info fallback).
		routerInfo, prodInfo = nil, nil
	}
	// Flush buffered events first so the registration point is exact with
	// respect to Ingest order; the op rides the same send phase.
	rt.sendLocked(func(i int) shardMsg {
		op := &regOp{id: id, gid: gs.gid, info: routerInfo, eng: engines[i], sink: sinks[i],
			emit: emit, seq: seq, prodID: prodID}
		if prods != nil {
			op.prod, op.prodInfo = prods[i], prodInfo
		}
		return shardMsg{ts: ts, reg: op}
	})
	return id, nil
}

// Unregister removes a live query. When it is the last query of its engine
// group, the group's engines are dropped without a final flush: partial
// matches pending inside the window are discarded, while matches already
// emitted are still delivered. Events ingested before Unregister returns
// are still evaluated by the query. Unregistering a quarantined id
// succeeds and removes its registry entry (the fault record stays
// inspectable via Faults).
func (rt *Runtime) Unregister(id QueryID) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return ErrClosed
	}
	if rt.faults.dirty.Load() {
		rt.reapFaultsLocked(true)
	}
	reg, ok := rt.live[id]
	if !ok {
		return &UnknownQueryError{ID: id}
	}
	if reg.quarantined {
		// The group (and all worker-side state) is already gone; only the
		// registry entry remains.
		delete(rt.live, id)
		return nil
	}
	ts := rt.lastTs // captured under mu: the op closure runs unlocked
	rt.sendLocked(func(int) shardMsg { return shardMsg{ts: ts, unreg: id} })
	delete(rt.live, id)
	gs := rt.groups[reg.key]
	gs.members--
	if gs.members == 0 {
		rt.dropGroupLocked(reg.key, gs)
	}
	if rt.wal != nil {
		// Record the shrunken query set so recovery does not resurrect the
		// unregistered query.
		if werr := rt.noteWALError(rt.writeCheckpointLocked()); werr != nil {
			return werr
		}
	}
	return nil
}

// dropGroupLocked removes one engine group's registry entry: its engine
// counters are folded into the retired accumulator (so Stats stays
// cumulative without keeping dead engines — and their buffered windows —
// alive; workers may process a final in-flight batch after this snapshot,
// those last few events go uncounted) and its prefix-family bookkeeping is
// unwound. The family bookkeeping mirrors the workers': when the last
// consumer leaves, the per-shard producers are dropped (worker-side, by
// reader refcount); a later family member starts a fresh producer. Callers
// hold mu.
func (rt *Runtime) dropGroupLocked(key groupKey, gs *groupState) {
	for _, e := range gs.engines {
		rt.retired.Add(e.Snapshot())
	}
	delete(rt.groups, key)
	if gs.prefixKey == "" {
		return
	}
	ps := rt.prefixes[gs.prefixKey]
	if ps == nil {
		return
	}
	if gs.consumer {
		ps.consumers--
		if ps.consumers == 0 {
			ps.prodID = 0
		}
	} else {
		ps.solos--
	}
	if ps.solos == 0 && ps.consumers == 0 {
		delete(rt.prefixes, gs.prefixKey)
	}
}

// Ingest feeds one event. Timestamps must be non-decreasing; the event's
// Seq is overwritten with a globally monotone arrival stamp here, and every
// shard engine then shares the event without copying (engines adopt
// pre-stamped sequence numbers and treat the event as immutable), so the
// caller must not reuse or mutate the event afterwards. Ingest blocks when
// a worker queue is full (backpressure) and is safe to call concurrently
// with Register/Unregister/Stats, though multi-producer ingest needs
// external ordering to keep timestamps monotone.
func (rt *Runtime) Ingest(ev *event.Event) error {
	return rt.ingest(nil, ev)
}

// ingest is the shared Ingest/IngestContext body; a nil ctx never expires.
func (rt *Runtime) ingest(ctx context.Context, ev *event.Event) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return ErrClosed
	}
	if rt.faults.dirty.Load() {
		rt.reapFaultsLocked(true)
	}
	if ev.Ts < rt.lastTs {
		return &OutOfOrderError{Ts: ev.Ts, Last: rt.lastTs}
	}
	rt.lastTs = ev.Ts
	rt.lastSeq++
	ev.Seq = rt.lastSeq
	if rt.wal != nil {
		// Mirror the event in ingest order; the flush appends the mirror as
		// one write-ahead batch record before any worker sees the events.
		rt.walPend = append(rt.walPend, ev)
	}
	s := rt.shard(ev)
	if rt.pending[s] == nil {
		rt.pending[s] = event.GetBatch()
	}
	rt.pending[s] = append(rt.pending[s], ev)
	rt.nPend++
	rt.ingested.Add(1)
	if rt.nPend >= rt.cfg.BatchSize {
		return rt.sendLockedCtx(ctx, nil)
	}
	return nil
}

// shard routes an event by hashing its partition-key attribute: FNV-1a
// over the value, folded with the seed and a 64-bit avalanche mix so
// low-cardinality keys still spread across shards. The hash is
// deterministic, so a key lands on the same shard in every run — recovery
// replays events to exactly the shards that saw them originally, and the
// cross-shard order of equal-end-time matches is reproducible.
func (rt *Runtime) shard(ev *event.Event) int {
	if rt.cfg.Shards == 1 {
		return 0
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037) ^ rt.seed
	switch v := ev.Get(rt.cfg.PartitionBy); v.Kind {
	case event.KindString:
		for i := 0; i < len(v.S); i++ {
			h ^= uint64(v.S[i])
			h *= prime
		}
	case event.KindFloat:
		u := math.Float64bits(v.F)
		for i := 0; i < 8; i++ {
			h ^= (u >> (8 * i)) & 0xff
			h *= prime
		}
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(rt.cfg.Shards))
}

// defaultPartitionSeed seeds the partition hash of every runtime that does
// not recover a log; any fixed value works. A durable runtime persists it
// in the log's meta record, and a recovered log's persisted seed wins.
const defaultPartitionSeed uint64 = 0x5a53545245414d00 // "ZSTREAM\0"

// sendLocked flushes every shard's pending batch — an empty batch is a
// heartbeat carrying the current stream time, which keeps idle shards'
// watermarks advancing so the ordered merge never stalls on a cold
// shard — followed by one op message per worker when op is non-nil.
//
// It must be called with mu held and returns with mu held, but drops it
// for the blocking channel sends: only sendMu (acquired under mu, so
// send phases run in decision order) is held while backpressure bites.
func (rt *Runtime) sendLocked(op func(shard int) shardMsg) {
	_ = rt.sendLockedCtx(nil, op)
}

// sendLockedCtx is sendLocked with a deadline on the event flush: each
// shard's batch goes through sendBatch, while op messages always block —
// registry operations are never shed. Once ctx expires every later shard
// is still offered its batch, which a full queue sheds (counted) and a
// queue with room takes, so one flush never half-blocks. Returns the
// first context-expiry or WAL error.
func (rt *Runtime) sendLockedCtx(ctx context.Context, op func(shard int) shardMsg) error {
	batches := rt.pending
	ts := rt.lastTs
	flush := rt.nPend > 0 || ts != math.MinInt64/2
	if !flush && op == nil {
		return nil
	}
	// Double-buffer the outer array: the spare is all-nil. It can be nil
	// itself when a second flush overlaps an in-flight send (mu is dropped
	// below); allocate then.
	if rt.pendingSpare != nil {
		rt.pending = rt.pendingSpare
		rt.pendingSpare = nil
	} else {
		rt.pending = make([][]*event.Event, rt.cfg.Shards)
	}
	rt.nPend = 0
	var wp []*event.Event
	if rt.wal != nil && len(rt.walPend) > 0 {
		wp, rt.walPend = rt.walPend, nil
	}

	rt.sendMu.Lock()
	rt.mu.Unlock()
	var err error
	var walErr error
	if wp != nil {
		// Write-ahead: the batch record must be durable (to the OS at
		// least) before any worker can act on the events. A failed append
		// sheds the whole flush (fail-stop) — the events were never
		// durable, so they must not be processed either.
		walErr = rt.wal.AppendBatch(wp)
	}
	for i, w := range rt.workers {
		if flush {
			if walErr != nil {
				rt.shedBatch(i, batches[i])
			} else if e := rt.sendBatch(ctx, w, i, shardMsg{events: batches[i], ts: ts}); e != nil && err == nil {
				err = e
			}
		}
		if op != nil {
			w.in <- op(i)
		}
	}
	rt.sendMu.Unlock()
	rt.mu.Lock()
	// The batch slices now belong to the workers (returned to the shared
	// pool there); the outer array is reusable once its entries are nil.
	clear(batches)
	if rt.pendingSpare == nil {
		rt.pendingSpare = batches
	}
	if wp != nil {
		nWAL := len(wp)
		clear(wp)
		if rt.walPend == nil {
			rt.walPend = wp[:0]
		}
		if walErr != nil {
			if werr := rt.noteWALError(walErr); werr != nil && err == nil {
				err = werr
			}
		} else if !rt.closed { // Close checkpoints once the merger drains
			rt.sinceCkpt += nWAL
			if rt.sinceCkpt >= rt.cfg.Durability.CheckpointEvery {
				if werr := rt.noteWALError(rt.writeCheckpointLocked()); werr != nil && err == nil {
					err = werr
				}
			}
		}
	}
	return err
}

// Close flushes buffered events, final-flushes every engine (emitting all
// remaining matches, including trailing negations and closures), waits for
// the merger to drain, and stops all goroutines. It is idempotent; Ingest,
// Register and Unregister fail with ErrClosed afterwards.
func (rt *Runtime) Close() error {
	_, err := rt.closeCtx(nil)
	return err
}

// closeCtx is the shared Close/CloseContext body; a nil ctx never expires,
// so the drain is unbounded (plain Close).
func (rt *Runtime) closeCtx(ctx context.Context) (DrainReport, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		select {
		case <-rt.merger:
			return DrainReport{Complete: true}, nil
		case <-done:
			return DrainReport{}, ctx.Err()
		}
	}
	if rt.faults.dirty.Load() {
		// The worker channels are still open here, so the quarantine
		// broadcast goes through: shards drop faulted engines before the
		// final flush, keeping a quarantined query's partial matches out
		// of the drained output.
		rt.reapFaultsLocked(true)
	}
	rt.closed = true
	shedBefore := rt.shedTotal()
	// The final flush is an ordinary one — write-ahead first, shed what
	// never became durable, shed past the deadline rather than block — and
	// its errors are already counted (WAL) or reported below (deadline).
	// closed, set above, stops every later caller before it reaches a send,
	// so once the flush's own send phase is over the channels can close;
	// the workers always terminate.
	_ = rt.sendLockedCtx(ctx, nil)
	rt.sendMu.Lock()
	for _, w := range rt.workers {
		close(w.in)
	}
	rt.sendMu.Unlock()
	rt.mu.Unlock()
	rep := DrainReport{}
	var err error
	select {
	case <-rt.merger:
		rep.Complete = true
	case <-done:
		err = ctx.Err()
	}
	if rt.wal != nil && rep.Complete {
		// Merger drained: the emit watermark covers every delivered match.
		// A final checkpoint at the closed position makes a clean restart
		// replay-and-suppress everything (no duplicate output).
		rt.mu.Lock()
		_ = rt.noteWALError(rt.writeCheckpointLocked())
		rt.mu.Unlock()
		if cerr := rt.noteWALError(rt.wal.Close()); cerr != nil && err == nil {
			err = cerr
		}
	}
	rep.EventsShed = rt.shedTotal() - shedBefore
	return rep, err
}

// Stats returns aggregated counters; safe to call at any time, including
// while workers are processing (engine snapshots are atomic, and worker
// backpressure never holds mu). Engine counters cover live engine groups
// (each physical engine once, no matter how many queries alias it) plus
// the totals unregistered groups had accumulated when they were removed.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	if !rt.closed && rt.faults.dirty.Load() {
		rt.reapFaultsLocked(true)
	}
	engines := make([]*core.Engine, 0, len(rt.groups)*rt.cfg.Shards)
	nConsumers := 0
	for _, gs := range rt.groups {
		engines = append(engines, gs.engines...)
		if gs.consumer {
			nConsumers++
		}
	}
	nProds := 0
	for _, ps := range rt.prefixes {
		if ps.prodID != 0 {
			nProds++
		}
	}
	nQuar := 0
	for _, reg := range rt.live {
		if reg.quarantined {
			nQuar++
		}
	}
	nLive, nGroups := len(rt.live)-nQuar, len(rt.groups)
	agg := rt.retired
	rt.mu.Unlock()
	st := Stats{
		Shards:                rt.cfg.Shards,
		LiveQueries:           nLive,
		EngineGroups:          nGroups,
		SharedSubplans:        nProds,
		SharedPrefixConsumers: nConsumers,
		QuarantinedQueries:    nQuar,
		Faults:                rt.faults.total.Load(),
		ShedByShard:           make([]uint64, rt.cfg.Shards),
		RoundsByShard:         make([]uint64, rt.cfg.Shards),
		EventsIngested:        rt.ingested.Load(),
		MatchesDelivered:      rt.delivered.Load(),
		EngineDeliveries:      rt.engineDeliv.Load(),
		Engine:                agg,
	}
	for i := range rt.shed {
		n := rt.shed[i].Load()
		st.ShedByShard[i] = n
		st.EventsShed += n
		st.RoundsByShard[i] = rt.workers[i].rounds.Load()
	}
	for _, e := range engines {
		st.Engine.Add(e.Snapshot())
	}
	if rt.wal != nil {
		st.WALEnabled = true
		st.WAL = rt.wal.Stats()
	}
	st.WALErrors = rt.walErrs.Load()
	st.WALSuppressed = rt.suppressed.Load()
	st.WALTruncatedBytes = rt.walTruncated
	return st
}

package runtime

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/wal"
)

// DurConfig configures the durability plane (Config.Durability). Every
// write-ahead-log failure (disk full, I/O error, injected crash) is
// fail-stop: it surfaces to the failing call and sheds the affected flush,
// so events that were never durable are never processed and the log stays
// a superset of what the engines saw. The writer error is sticky — every
// later Ingest fails too.
type DurConfig struct {
	// Dir is the write-ahead-log directory. Required.
	Dir string
	// Fsync selects when segments are fsynced (default wal.FsyncBatch).
	Fsync wal.FsyncPolicy
	// SyncEvery bounds the unsynced window under wal.FsyncInterval
	// (default 50ms).
	SyncEvery time.Duration
	// SegmentBytes rotates segments past this size (default 64 MiB).
	SegmentBytes int64
	// CheckpointEvery writes a checkpoint after roughly this many logged
	// events (at flush boundaries; default 4096). Registrations and
	// unregistrations always checkpoint immediately.
	CheckpointEvery int
	// RecoverEmit, consulted during recovery, returns the OnMatch callback
	// to attach to a checkpointed query, given its original id and
	// normalized text. nil (or a nil return) recovers the query without a
	// callback; its matches still count in Stats.
	RecoverEmit func(id QueryID, src string) func(*core.Match)
}

func (d DurConfig) withDefaults() DurConfig {
	if d.SyncEvery <= 0 {
		d.SyncEvery = 50 * time.Millisecond
	}
	if d.SegmentBytes <= 0 {
		d.SegmentBytes = 64 << 20
	}
	if d.CheckpointEvery <= 0 {
		d.CheckpointEvery = 4096
	}
	return d
}

// WALFault is one recorded write-ahead-log failure, inspectable via
// Runtime.WALErrors (the durability analogue of Runtime.Faults).
type WALFault struct {
	// Op is the failing log operation ("append", "fsync", "checkpoint",
	// "emitwm", "rotate", "open"), Err its rendered error.
	Op  string
	Err string
	// Simulated marks faults injected by the chaos harness.
	Simulated bool
}

// maxWALFaults bounds the fault record list: every later Ingest
// re-observes the sticky writer error, and an ignoring caller must
// not grow the list without bound.
const maxWALFaults = 64

// RecoverInfo summarizes what NewDurable found and rebuilt from the log.
type RecoverInfo struct {
	// Segments is the number of segment files scanned; TruncatedBytes is
	// the torn tail cut from the final one (0 for a clean log).
	Segments       int
	TruncatedBytes int64
	// Events counts all durable events in the log; ReplayedEvents and
	// ReplayedBatches count the suffix inside the recovery horizon that
	// was re-fed through the engines.
	Events          uint64
	ReplayedEvents  uint64
	ReplayedBatches uint64
	// LastSeq and LastTs are the durable stream position: the caller
	// resumes feeding its source from sequence LastSeq+1.
	LastSeq uint64
	LastTs  int64
	// Queries is the number of checkpointed queries re-registered.
	Queries int
}

// String renders the one-line summary the CLI logs on -recover.
func (ri *RecoverInfo) String() string {
	return fmt.Sprintf("recovered: segments=%d events=%d replayed=%d batches=%d truncated=%dB queries=%d last_seq=%d last_ts=%d",
		ri.Segments, ri.Events, ri.ReplayedEvents, ri.ReplayedBatches, ri.TruncatedBytes, ri.Queries, ri.LastSeq, ri.LastTs)
}

// NewDurable creates a Runtime with the durability plane enabled,
// recovering any existing log in cfg.Durability.Dir first: segments are
// scanned and CRC-validated (a torn tail is truncated), checkpointed
// queries are re-registered under their original ids, and the durable
// event suffix inside the recovery horizon is replayed through the normal
// ingest path with matches at or below the durable emit watermark
// suppressed. The pre-crash and post-recovery outputs concatenate to
// exactly the crash-free run's output (exactly-once at the OnMatch
// boundary; a crash between the watermark write and its callbacks can
// lose — never duplicate — that one release round).
//
// Events accepted but not yet durable at the crash are lost; the caller
// resumes its source from RecoverInfo.LastSeq+1.
func NewDurable(cfg Config) (*Runtime, *RecoverInfo, error) {
	if cfg.Durability == nil || cfg.Durability.Dir == "" {
		return nil, nil, errors.New("runtime: NewDurable requires Config.Durability.Dir")
	}
	d := cfg.Durability.withDefaults()
	cfg.Durability = &d

	res, err := wal.Scan(d.Dir)
	if err != nil {
		return nil, nil, err
	}
	if res.Meta != nil {
		// The log's persisted partitioning wins: replay must reproduce the
		// original run's shard assignment bit-exactly.
		if res.Meta.Shards > 0 {
			cfg.Shards = res.Meta.Shards
		}
		if res.Meta.PartitionBy != "" {
			cfg.PartitionBy = res.Meta.PartitionBy
		}
	}

	rt := New(cfg)
	// Safe to set after New: no event can be ingested and no worker sends
	// happen until this function hands the runtime out; the channel sends
	// below establish the necessary happens-before edges.
	if res.Meta != nil {
		rt.seed = res.Meta.Seed
	}
	if res.HaveWM {
		rt.supEnd, rt.supCount, rt.supActive = res.WM.End, res.WM.Count, true
		rt.wmEnd.Store(res.WM.End)
		rt.wmCount.Store(res.WM.Count)
	} else {
		rt.wmEnd.Store(math.MinInt64)
	}

	w, err := wal.NewWriter(
		wal.Options{Dir: d.Dir, Fsync: d.Fsync, SyncEvery: d.SyncEvery, SegmentBytes: d.SegmentBytes, Injector: cfg.test.injector},
		wal.Meta{Seed: rt.seed, Shards: rt.cfg.Shards, PartitionBy: rt.cfg.PartitionBy},
		res.LastSeg+1,
	)
	if err != nil {
		_ = rt.Close()
		return nil, nil, err
	}
	rt.wal = w
	rt.walTruncated = res.TruncatedBytes

	info := &RecoverInfo{
		Segments:       res.Segments,
		TruncatedBytes: res.TruncatedBytes,
		Events:         res.Events,
		LastSeq:        res.LastSeq,
		LastTs:         res.LastTs,
	}
	if err := rt.recover(res, &d, info); err != nil {
		// Durability is unrecoverable: stop the goroutines with no final
		// flush and no further log writes.
		rt.crash()
		return nil, nil, err
	}
	return rt, info, nil
}

// recover re-registers the checkpointed queries and replays the durable
// event suffix, interleaving registrations at their recorded stream
// positions so batch boundaries, engine groups and shared readers form
// exactly as in the original run.
func (rt *Runtime) recover(res *wal.ScanResult, d *DurConfig, info *RecoverInfo) error {
	var regs []wal.QueryCheckpoint
	var maxWindow int64
	if res.Checkpoint != nil {
		regs = append(regs, res.Checkpoint.Queries...)
		sort.Slice(regs, func(i, j int) bool {
			if regs[i].RegSeq != regs[j].RegSeq {
				return regs[i].RegSeq < regs[j].RegSeq
			}
			return regs[i].ID < regs[j].ID
		})
		maxWindow = res.Checkpoint.MaxWindow
	}
	info.Queries = len(regs)

	// The recovery horizon: every match that may still be emitted (end
	// above the durable watermark) is built entirely from events within
	// the last max-window of the stream — the WITHIN bound (MeiM09 §2).
	// Without a watermark nothing was ever emitted, so replay everything.
	horizon := int64(math.MinInt64)
	if res.HaveWM {
		horizon = res.WM.End - maxWindow
	}

	// Replay observes progressive stream positions: registrations at seq S
	// re-register when the next batch starts past S, exactly the original
	// boundary (Register always flushed pending events first, so every
	// RegSeq is a batch boundary).
	err := wal.Replay(d.Dir, horizon, func(evs []*event.Event) error {
		for len(regs) > 0 && regs[0].RegSeq < evs[0].Seq {
			if err := rt.recoverRegister(regs[0], d); err != nil {
				return err
			}
			regs = regs[1:]
		}
		info.ReplayedBatches++
		info.ReplayedEvents += uint64(len(evs))
		return rt.replayBatch(evs)
	})
	if err != nil {
		return err
	}
	for _, qc := range regs {
		if err := rt.recoverRegister(qc, d); err != nil {
			return err
		}
	}

	rt.mu.Lock()
	defer rt.mu.Unlock()
	// Adopt the durable position even if the horizon skipped everything.
	if res.Events > 0 {
		rt.lastSeq = res.LastSeq
		rt.lastTs = res.LastTs
	}
	// A fresh checkpoint at the recovered position re-anchors retention.
	return rt.noteWALError(rt.writeCheckpointLocked())
}

// recoverRegister re-registers one checkpointed query under its original
// id.
func (rt *Runtime) recoverRegister(qc wal.QueryCheckpoint, d *DurConfig) error {
	q, err := query.Parse(qc.Src)
	if err != nil {
		return fmt.Errorf("runtime: recover query %d: %w", qc.ID, err)
	}
	var emit func(*core.Match)
	if d.RecoverEmit != nil {
		emit = d.RecoverEmit(QueryID(qc.ID), qc.Src)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if QueryID(qc.ID) > rt.nextID {
		rt.nextID = QueryID(qc.ID)
	}
	if _, err := rt.registerLocked(QueryID(qc.ID), q, decodeCoreConfig(qc.Core), emit); err != nil {
		return fmt.Errorf("runtime: recover query %d: %w", qc.ID, err)
	}
	return nil
}

// replayBatch re-feeds one durable batch record through the normal flush
// path — same shard partitioning, same batch boundary — without logging
// it again (walPend stays empty during replay).
func (rt *Runtime) replayBatch(evs []*event.Event) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, ev := range evs {
		s := rt.shard(ev)
		if rt.pending[s] == nil {
			rt.pending[s] = event.GetBatch()
		}
		rt.pending[s] = append(rt.pending[s], ev)
		rt.nPend++
		if ev.Seq > rt.lastSeq {
			rt.lastSeq = ev.Seq
		}
		if ev.Ts > rt.lastTs {
			rt.lastTs = ev.Ts
		}
	}
	rt.ingested.Add(uint64(len(evs)))
	return rt.sendLockedCtx(nil, nil)
}

// newRegisteredLocked builds a registry entry, capturing the durable
// checkpoint fields when the WAL is on. Callers hold mu.
func (rt *Runtime) newRegisteredLocked(id QueryID, key groupKey, q *query.Query, cfg core.Config, seq uint64) *registered {
	r := &registered{id: id, key: key}
	if rt.wal != nil {
		r.src = q.String()
		r.coreCfg = cfg
		r.regSeq = seq
		r.window = q.Within
	}
	return r
}

// writeCheckpointLocked appends a checkpoint covering the current live
// query set and stream position, then prunes segments that fell behind
// the recovery horizon. Callers hold mu (the WAL writer has its own lock
// for the merger's concurrent watermark writes).
func (rt *Runtime) writeCheckpointLocked() error {
	if rt.wal == nil {
		return nil
	}
	rt.sinceCkpt = 0
	cp := wal.Checkpoint{
		LastSeq:   rt.lastSeq,
		LastTs:    rt.lastTs,
		EmitEnd:   rt.wmEnd.Load(),
		EmitCount: rt.wmCount.Load(),
	}
	regs := make([]*registered, 0, len(rt.live))
	for _, r := range rt.live {
		if !r.quarantined {
			regs = append(regs, r)
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].regSeq != regs[j].regSeq {
			return regs[i].regSeq < regs[j].regSeq
		}
		return regs[i].id < regs[j].id
	})
	for _, r := range regs {
		cp.Queries = append(cp.Queries, wal.QueryCheckpoint{
			ID:     int64(r.id),
			Src:    r.src,
			RegSeq: r.regSeq,
			Core:   encodeCoreConfig(r.coreCfg),
		})
		if r.window > cp.MaxWindow {
			cp.MaxWindow = r.window
		}
	}
	if err := rt.wal.WriteCheckpoint(cp); err != nil {
		return err
	}
	_, perr := rt.wal.Prune()
	return perr
}

// noteWALError folds one WAL failure into the runtime's fault surface and
// passes it through (fail-stop). Safe without mu (Register/Ingest call it
// under mu; the merger calls it from its own goroutine).
func (rt *Runtime) noteWALError(err error) error {
	if err == nil {
		return nil
	}
	rt.walErrs.Add(1)
	f := WALFault{Op: "wal", Err: err.Error()}
	var we *wal.Error
	if errors.As(err, &we) {
		f.Op = we.Op
		f.Simulated = we.Simulated
	}
	rt.walFaultsMu.Lock()
	if len(rt.walFaults) < maxWALFaults {
		rt.walFaults = append(rt.walFaults, f)
	}
	rt.walFaultsMu.Unlock()
	return err
}

// WALErrors returns the recorded write-ahead-log fault records (capped at
// a small fixed number; the first entry is the root cause, later ones
// re-observations of the sticky writer error).
func (rt *Runtime) WALErrors() []WALFault {
	rt.walFaultsMu.Lock()
	defer rt.walFaultsMu.Unlock()
	out := make([]WALFault, len(rt.walFaults))
	copy(out, rt.walFaults)
	return out
}

// crash simulates a process crash — for the crash-recovery differential
// suite, and to abort a NewDurable whose recovery failed: worker channels
// close with the crashing flag set, so no engine
// final-flushes (a crash cannot confirm trailing negations), the merger
// exits holding back its heap, buffered-but-unflushed events are
// discarded (they were never durable), and the log is closed without a
// final sync — exactly the state a kill -9 leaves on disk as far as the
// OS page cache is concerned.
func (rt *Runtime) crash() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	rt.crashing.Store(true)
	batches := rt.pending
	rt.pending = make([][]*event.Event, rt.cfg.Shards)
	rt.nPend = 0
	rt.walPend = nil
	rt.sendMu.Lock()
	rt.mu.Unlock()
	for _, w := range rt.workers {
		close(w.in)
	}
	rt.sendMu.Unlock()
	<-rt.merger
	for _, b := range batches {
		if b != nil {
			event.PutBatch(b)
		}
	}
	if rt.wal != nil {
		rt.wal.CloseNoSync()
	}
}

// encodeCoreConfig projects an engine config onto its serializable subset
// (pointer-valued fields — an explicit plan shape, seeded statistics —
// are dropped; see wal.CoreConfig).
func encodeCoreConfig(c core.Config) wal.CoreConfig {
	return wal.CoreConfig{
		Strategy:         int(c.Strategy),
		BatchSize:        c.BatchSize,
		Negation:         int(c.Negation),
		UseHash:          c.UseHash,
		Adaptive:         c.Adaptive,
		AdaptEvery:       c.AdaptEvery,
		DriftThreshold:   c.DriftThreshold,
		ImproveThreshold: c.ImproveThreshold,
		MaxDisorder:      c.MaxDisorder,
		StatsSeed:        c.StatsSeed,
		DisableEAT:       c.DisableEAT,
	}
}

// decodeCoreConfig is the inverse of encodeCoreConfig.
func decodeCoreConfig(c wal.CoreConfig) core.Config {
	return core.Config{
		Strategy:         core.Strategy(c.Strategy),
		BatchSize:        c.BatchSize,
		Negation:         plan.NegPlacement(c.Negation),
		UseHash:          c.UseHash,
		Adaptive:         c.Adaptive,
		AdaptEvery:       c.AdaptEvery,
		DriftThreshold:   c.DriftThreshold,
		ImproveThreshold: c.ImproveThreshold,
		MaxDisorder:      c.MaxDisorder,
		StatsSeed:        c.StatsSeed,
		DisableEAT:       c.DisableEAT,
	}
}

// Package wal is the runtime's durability plane: a segment-based,
// CRC-framed, append-only log of ingested event batches plus the small
// amount of durable control state recovery needs — registered queries,
// the ingest position, and the merger's emit watermark.
//
// The design leans on the property that makes ZStream recovery cheap
// (MeiM09 §2): every pattern is bounded by a WITHIN window, so operator
// state is a pure function of the last max-window of the stream. A
// checkpoint therefore never serializes operator buffers; it records only
// the registered query set and stream position, and recovery replays the
// log from checkpoint_position − max_window through the normal ingest
// path, suppressing matches at or below the durable emit watermark.
//
// # Segment format
//
// A log directory holds numbered segment files (wal-00000001.seg, …).
// Each segment starts with an 8-byte magic header and then a sequence of
// frames:
//
//	[4B little-endian payload length][4B CRC32-C of payload][payload]
//
// The payload's first byte is the record type; the rest is the body.
// Record types:
//
//	meta       JSON: format version, partition seed, shard count, partition
//	           attribute — everything replay needs to reproduce shard
//	           assignment and batch boundaries bit-exactly.
//	schema     binary schema dictionary entry (id → name + attributes).
//	batch      one ingest-side flush: the exact set of events the runtime
//	           sent to its shard workers as one batch round, encoded with
//	           event.AppendEncoded. Batch records double as batch-boundary
//	           markers: replay re-feeds each record as one flush, which is
//	           what makes equal-end-time tie order reproducible.
//	checkpoint JSON: registered query texts + options, last seq/ts, emit
//	           watermark at the time of writing. Any complete checkpoint
//	           makes all strictly older segments prunable once their events
//	           fall behind the recovery horizon.
//	emitwm     binary (end zigzag-varint, cumulative emit count at that end
//	           uvarint): the merger's durable emit watermark, written and
//	           synced before OnMatch callbacks run, so replayed matches at
//	           or below it are suppressed instead of re-delivered.
//
// Every segment is self-contained: meta and the schema dictionary are
// rewritten at the head of each new segment, so recovery can start
// scanning at any retained segment. A torn tail (partial frame or CRC
// mismatch) is tolerated only in the final segment, where it is truncated;
// anywhere else it is corruption and recovery fails loudly.
package wal

import (
	"fmt"
	"hash/crc32"
)

// Magic is the 8-byte segment file header.
var Magic = [8]byte{'Z', 'S', 'W', 'A', 'L', '0', '0', '1'}

// FormatVersion is bumped when the record encoding changes incompatibly.
const FormatVersion = 1

// Record types (first payload byte of a frame).
const (
	// TMeta is a JSON Meta record; first record of every segment.
	TMeta byte = 1
	// TSchema is one binary schema-dictionary entry.
	TSchema byte = 2
	// TBatch is one ingest flush of encoded events.
	TBatch byte = 3
	// TCheckpoint is a JSON Checkpoint record.
	TCheckpoint byte = 4
	// TEmitWM is the merger's durable emit watermark.
	TEmitWM byte = 5
)

// castagnoli is the CRC-32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderSize is the per-frame overhead: 4-byte length + 4-byte CRC.
const frameHeaderSize = 8

// maxFramePayload bounds a single frame so a corrupted length field cannot
// drive an enormous allocation during recovery. 64 MiB is far above any
// real batch (256 events × a few hundred bytes).
const maxFramePayload = 64 << 20

// Meta is the JSON body of a TMeta record. It captures everything replay
// needs to reproduce the original run's shard assignment.
type Meta struct {
	// Version is FormatVersion at write time.
	Version int `json:"version"`
	// Seed is the partition-hash seed, persisted so replay reproduces the
	// original shard assignment exactly whatever seed a later build uses.
	Seed uint64 `json:"seed"`
	// Shards is the configured shard count.
	Shards int `json:"shards"`
	// PartitionBy is the partition attribute name.
	PartitionBy string `json:"partition_by"`
	// Segment is this segment's ordinal (1-based).
	Segment uint64 `json:"segment"`
}

// QueryCheckpoint is one registered query inside a Checkpoint.
type QueryCheckpoint struct {
	// ID is the runtime-assigned query id, preserved across recovery so
	// transcripts keyed by id concatenate cleanly.
	ID int64 `json:"id"`
	// Src is the normalized query text (query.Query.String()).
	Src string `json:"src"`
	// RegSeq is the ingest seq at registration time; recovery interleaves
	// re-registrations at the same stream positions.
	RegSeq uint64 `json:"reg_seq"`
	// Core is the serialized engine configuration subset.
	Core CoreConfig `json:"core"`
}

// CoreConfig is the serializable subset of the per-query engine
// configuration. Pointer-valued fields of the engine config (an explicit
// fixed plan shape, seeded optimizer statistics) are not serialized:
// recovered queries re-derive plans from the recorded strategy.
type CoreConfig struct {
	// Strategy is the plan strategy enum value (0 = optimal).
	Strategy int `json:"strategy,omitempty"`
	// BatchSize is the engine batch size.
	BatchSize int `json:"batch_size,omitempty"`
	// Negation is the negation-placement enum value.
	Negation int `json:"negation,omitempty"`
	// UseHash enables hash-based equality joins.
	UseHash bool `json:"use_hash,omitempty"`
	// Adaptive enables runtime replanning, tuned by AdaptEvery /
	// DriftThreshold / ImproveThreshold.
	Adaptive         bool    `json:"adaptive,omitempty"`
	AdaptEvery       int     `json:"adapt_every,omitempty"`
	DriftThreshold   float64 `json:"drift_threshold,omitempty"`
	ImproveThreshold float64 `json:"improve_threshold,omitempty"`
	// MaxDisorder is the out-of-order tolerance in ticks.
	MaxDisorder int64 `json:"max_disorder,omitempty"`
	// StatsSeed seeds the sampling collector.
	StatsSeed int64 `json:"stats_seed,omitempty"`
	// DisableEAT disables EAT push-down (ablation runs).
	DisableEAT bool `json:"disable_eat,omitempty"`
}

// Checkpoint is the JSON body of a TCheckpoint record: the full durable
// control state at one batch boundary.
type Checkpoint struct {
	// Queries is the registered query set in registration (regSeq) order.
	Queries []QueryCheckpoint `json:"queries"`
	// LastSeq is the last assigned ingest sequence number.
	LastSeq uint64 `json:"last_seq"`
	// LastTs is the last observed event timestamp.
	LastTs int64 `json:"last_ts"`
	// EmitEnd and EmitCount mirror the emit watermark at write time (the
	// TEmitWM records are still authoritative; this copy lets pruning
	// reason about a checkpoint in isolation).
	EmitEnd int64 `json:"emit_end"`
	// EmitCount is the cumulative number of matches emitted with
	// end == EmitEnd.
	EmitCount uint64 `json:"emit_count"`
	// MaxWindow is the largest WITHIN window across Queries, in ticks; the
	// recovery horizon is LastTs − MaxWindow.
	MaxWindow int64 `json:"max_window"`
}

// EmitWM is the merger's durable emit watermark: the merger has delivered
// Count matches with end time End, and every match with a smaller end.
// Ordering is lexicographic on (End, Count).
type EmitWM struct {
	// End is the match end-timestamp the watermark has reached.
	End int64
	// Count is how many matches with exactly that end have been emitted.
	Count uint64
}

// Less reports whether w orders strictly before o.
func (w EmitWM) Less(o EmitWM) bool {
	return w.End < o.End || (w.End == o.End && w.Count < o.Count)
}

// SegmentName formats the file name of segment n.
func SegmentName(n uint64) string { return fmt.Sprintf("wal-%08d.seg", n) }

// FsyncPolicy selects when the writer calls fsync on the active segment.
type FsyncPolicy int

const (
	// FsyncBatch syncs after every appended batch record (and every emit
	// watermark record): maximum durability, one fsync per flush.
	FsyncBatch FsyncPolicy = iota
	// FsyncInterval syncs when at least SyncEvery has elapsed since the
	// last sync, amortizing fsync cost at the price of a bounded window of
	// recent events that a crash may lose (never corrupt).
	FsyncInterval
	// FsyncOff never syncs explicitly; durability is whatever the OS page
	// cache provides. Every record is still flushed to the OS per append,
	// so a process crash (kill -9) loses nothing — only an OS crash or
	// power loss can lose the unsynced tail.
	FsyncOff
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("fsync(%d)", int(p))
	}
}

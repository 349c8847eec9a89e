package zstream

import (
	"time"

	"repro/internal/runtime"
	"repro/internal/wal"
)

// FsyncPolicy selects when the write-ahead log fsyncs its active segment;
// see the Fsync* constants for the durability/throughput trade-off each
// point buys.
type FsyncPolicy = wal.FsyncPolicy

const (
	// FsyncBatch syncs after every appended batch (and every emit
	// watermark): maximum durability, one fsync per ingest flush.
	FsyncBatch = wal.FsyncBatch
	// FsyncInterval syncs at most once per configured interval, amortizing
	// fsync cost for a bounded window of recent events that an OS crash
	// (not a process crash) may lose.
	FsyncInterval = wal.FsyncInterval
	// FsyncOff never fsyncs; every record is still flushed to the OS per
	// append, so kill -9 loses nothing — only OS crash or power loss can.
	FsyncOff = wal.FsyncOff
)

// WALError is the typed error returned for write-ahead-log failures: the
// failed operation, the segment path, whether it was fault-injected, and
// the underlying cause (unwrappable with errors.As / errors.Is). Every
// WAL failure is fail-stop: the failing ingest flush is shed and the
// error is sticky, so no event reaches the engines unless it is durable
// first, preserving exactly-once recovery.
type WALError = wal.Error

// WALFault is one recorded write-ahead-log failure, inspectable via
// Runtime.WALFaults and counted by RuntimeStats.WALErrors and the
// zstream_wal_errors_total metric.
type WALFault = runtime.WALFault

// RecoverInfo summarizes what NewDurableRuntime recovered from an existing
// log directory: segments scanned, torn-tail bytes truncated, events
// replayed, queries re-registered, and the resume position. Its String
// method renders the one-line form the CLI logs.
type RecoverInfo = runtime.RecoverInfo

// DurabilityOption tunes WithDurability.
type DurabilityOption func(*runtime.DurConfig)

// WithFsync selects the fsync policy (default FsyncBatch).
func WithFsync(p FsyncPolicy) DurabilityOption {
	return func(d *runtime.DurConfig) { d.Fsync = p }
}

// WithFsyncInterval bounds the unsynced window under FsyncInterval
// (default 50ms).
func WithFsyncInterval(iv time.Duration) DurabilityOption {
	return func(d *runtime.DurConfig) { d.SyncEvery = iv }
}

// WithCheckpointEvery writes a checkpoint after roughly n logged events,
// at flush boundaries (default 4096). Registrations and unregistrations
// always checkpoint immediately.
func WithCheckpointEvery(n int) DurabilityOption {
	return func(d *runtime.DurConfig) { d.CheckpointEvery = n }
}

// WithSegmentBytes rotates log segments past this size (default 64 MiB).
// Smaller segments give retention pruning finer granularity.
func WithSegmentBytes(n int64) DurabilityOption {
	return func(d *runtime.DurConfig) { d.SegmentBytes = n }
}

// WithRecoverHandler installs the callback factory recovery consults for
// every checkpointed query: given the query's original id and normalized
// text it returns the OnMatch callback to attach (nil recovers the query
// without one). Without a handler, recovered queries run but deliver
// nowhere.
func WithRecoverHandler(f func(id QueryID, src string) func(*Match)) DurabilityOption {
	return func(d *runtime.DurConfig) { d.RecoverEmit = f }
}

// WithDurability arms the durability plane on a runtime built with
// NewDurableRuntime: every ingested event is appended to a CRC-framed
// write-ahead log under dir before any engine sees it, checkpoints record
// the registered query set and stream position at batch boundaries, and a
// restart over the same directory recovers — replaying the tail of the
// log through the normal ingest path and suppressing matches already
// delivered before the crash, so the combined output equals a crash-free
// run's exactly. NewRuntime ignores this option.
func WithDurability(dir string, opts ...DurabilityOption) RuntimeOption {
	return func(c *runtime.Config) {
		d := &runtime.DurConfig{Dir: dir}
		for _, o := range opts {
			o(d)
		}
		c.Durability = d
	}
}

// NewDurableRuntime creates a runtime whose stream is made durable by
// WithDurability (which must be among opts), recovering first if the log
// directory already holds a previous run. It returns the runtime and a
// report of what recovery found; on a fresh directory the report is all
// zeros. See WithDurability for the durability contract.
func NewDurableRuntime(opts ...RuntimeOption) (*Runtime, *RecoverInfo, error) {
	var cfg runtime.Config
	for _, o := range opts {
		o(&cfg)
	}
	rt, info, err := runtime.NewDurable(cfg)
	if err != nil {
		return nil, nil, err
	}
	return &Runtime{rt: rt}, info, nil
}

// WALFaults returns every recorded write-ahead-log failure (capped at the
// most recent 64), oldest first. Empty on a healthy or non-durable
// runtime.
func (r *Runtime) WALFaults() []WALFault { return r.rt.WALErrors() }

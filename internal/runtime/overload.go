package runtime

import (
	"context"

	"repro/internal/event"
)

// shedBatch counts and releases one shard's dropped event batch. The
// events were stamped and owned by the runtime (Ingest forbids caller
// reuse), so they go straight back to the event pool.
func (rt *Runtime) shedBatch(shard int, evs []*event.Event) {
	if len(evs) == 0 {
		return
	}
	rt.shed[shard].Add(uint64(len(evs)))
	for _, ev := range evs {
		event.ReleaseEvent(ev)
	}
	event.PutBatch(evs)
}

// shedTotal sums the per-shard shed counters.
func (rt *Runtime) shedTotal() uint64 {
	var n uint64
	for i := range rt.shed {
		n += rt.shed[i].Load()
	}
	return n
}

// sendBatch delivers one shard's event flush. A full queue always applies
// backpressure; only the caller's own deadline sheds: once ctx expires, a
// queue with room still takes the batch and a full one sheds it, counted
// per shard. Only event batches pass through here — op messages always
// block. The returned error is non-nil only for context expiry.
//
// An empty flush (heartbeat) that meets a full queue under a deadline is
// skipped rather than shed or waited on: a full queue already holds newer
// stream-time messages for the shard, so the skip can never stall the
// watermark merge.
func (rt *Runtime) sendBatch(ctx context.Context, w *worker, shard int, msg shardMsg) error {
	if ctx == nil {
		w.in <- msg
		return nil
	}
	select {
	case w.in <- msg:
		return nil
	default:
	}
	if len(msg.events) == 0 {
		return nil // heartbeat: skip, see above
	}
	select {
	case w.in <- msg:
		return nil
	case <-ctx.Done():
		rt.shedBatch(shard, msg.events)
		return ctx.Err()
	}
}

// IngestContext is Ingest with a deadline: when a queue stays full until
// ctx expires, the undelivered shard batches of the current flush are
// shed, counted, and ctx's error returned. Events buffered but not yet
// flushed are kept for the next flush.
func (rt *Runtime) IngestContext(ctx context.Context, ev *event.Event) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return rt.ingest(ctx, ev)
}

// DrainReport is CloseContext's account of a bounded drain.
type DrainReport struct {
	// Complete is true when every engine final-flushed and the merger
	// delivered every remaining match before the deadline.
	Complete bool
	// EventsShed counts buffered events this drain dropped because a
	// worker queue stayed full past the deadline.
	EventsShed uint64
}

// CloseContext is Close with a deadline: buffered batches that cannot be
// delivered before ctx expires are shed (and reported), the worker
// channels are always closed, and the merger is waited on only up to the
// deadline. A second call — after either Close variant — waits for the
// merger again under the new deadline, so a timed-out drain can be
// re-awaited. The runtime rejects further use with ErrClosed either way.
func (rt *Runtime) CloseContext(ctx context.Context) (DrainReport, error) {
	return rt.closeCtx(ctx)
}

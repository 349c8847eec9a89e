package zstream

import (
	"context"

	"repro/internal/runtime"
)

// ErrQuarantined is matched (errors.Is) by the QueryFaultError returned
// for a query the runtime removed from execution after a contained fault.
var ErrQuarantined = runtime.ErrQuarantined

// QueryFault records one contained fault: the quarantined query, the
// dispatch site and shard the panic was recovered on, the panic message
// and stack, and the stream position the query's output is complete up to.
type QueryFault = runtime.QueryFault

// QueryFaultError is returned by Explain for a quarantined query; it
// matches ErrQuarantined under errors.Is and carries the QueryFault.
type QueryFaultError = runtime.QueryFaultError

// UnknownQueryError carries the id Unregister or Explain did not find; it
// matches ErrUnknownQuery under errors.Is.
type UnknownQueryError = runtime.UnknownQueryError

// OutOfOrderError carries the regressing timestamp Ingest rejected and the
// stream time it regressed behind; it matches ErrOutOfOrder under
// errors.Is.
type OutOfOrderError = runtime.OutOfOrderError

// DrainReport is CloseContext's account of a bounded drain: whether every
// engine flushed and every match delivered before the deadline, and how
// many buffered events were shed because they could not be.
type DrainReport = runtime.DrainReport

// IngestContext is Ingest with a deadline. A full shard queue always
// applies backpressure; when it would block past ctx's expiry, the
// undelivered shard batches of the current flush are shed (counted in
// RuntimeStats.EventsShed and ShedByShard) and ctx's error returned.
func (r *Runtime) IngestContext(ctx context.Context, ev *Event) error {
	return r.rt.IngestContext(ctx, ev)
}

// CloseContext is Close with a deadline: it flushes and drains what it can
// before ctx expires, always stops the workers, and reports whether the
// drain completed and how many buffered events were dropped. A timed-out
// drain may be re-awaited by calling CloseContext again with a fresh
// context.
func (r *Runtime) CloseContext(ctx context.Context) (DrainReport, error) {
	return r.rt.CloseContext(ctx)
}

// Faults returns every contained query fault recorded so far, sorted by
// query id. A faulted query is quarantined: its engines are dropped on
// every shard, its Explain returns a QueryFaultError, and every other
// query keeps running untouched. Unregistering a quarantined id removes
// its registry entry (the fault record stays); re-registering the same
// query text starts a fresh group. Faults keeps working after Close.
func (r *Runtime) Faults() []QueryFault { return r.rt.Faults() }

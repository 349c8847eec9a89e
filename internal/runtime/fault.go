package runtime

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// ErrQuarantined is matched (errors.Is) by the QueryFaultError that
// Explain returns for a query removed from execution by a contained fault.
var ErrQuarantined = errors.New("runtime: query quarantined after a contained fault")

// MergerShard is the QueryFault.Shard value of faults recovered on the
// merger goroutine (a panicking OnMatch callback), which runs on no shard.
const MergerShard = -1

// QueryFault records one contained fault: which query it took down, where
// the panic was recovered, and what the panic said. Faults are permanent
// for the life of the runtime — Unregister removes the quarantined
// registry entry, but the fault record stays inspectable via Faults.
type QueryFault struct {
	// ID is the quarantined query; GroupID the engine group it was
	// executing on when the fault hit (every query aliased onto a faulted
	// group is quarantined with it, each with its own record).
	ID      QueryID
	GroupID int64
	// Shard is the worker that recovered the panic, or MergerShard for
	// OnMatch callback faults.
	Shard int
	// Site names the dispatch boundary the panic crossed: one of the
	// faultinject site names, or "register.alias" for a query aliased onto
	// a group that was quarantined before its registration arrived.
	Site string
	// Panic is the formatted panic value and Stack the goroutine stack
	// captured at recovery ("" for quarantines inherited without a local
	// panic, e.g. the other members of a faulted group's shard).
	Panic string
	Stack string
	// StreamTs is the shard's stream clock when the panic was recovered
	// (the match end-time for merger-side faults): the stream position the
	// query's output is complete up to, minus any in-flight batch.
	StreamTs int64
}

// QueryFaultError is returned by Explain for a quarantined query. It
// matches ErrQuarantined under errors.Is and exposes the full fault record
// via errors.As.
type QueryFaultError struct {
	Fault QueryFault
}

func (e *QueryFaultError) Error() string {
	return fmt.Sprintf("runtime: query %d quarantined: %s (site %s, shard %d, stream ts %d)",
		e.Fault.ID, e.Fault.Panic, e.Fault.Site, e.Fault.Shard, e.Fault.StreamTs)
}

// Is reports target == ErrQuarantined so errors.Is works unwrapped.
func (e *QueryFaultError) Is(target error) bool { return target == ErrQuarantined }

// pendingQuar is one registry cleanup the next mu-holding API call owes:
// gid != 0 names a faulted engine group (every member goes), gid == 0 a
// merger-side OnMatch fault (only the listed queries go, their group — if
// shared — keeps serving its other aliases).
type pendingQuar struct {
	gid int64
	ids []QueryID
}

// faultSink collects contained faults from shard workers and the merger.
// It deliberately has nothing to do with the runtime registry lock:
// workers must never take mu (they would deadlock against a backpressured
// send phase holding it), so they record here and the next registry API
// call reaps the pending quarantines into the registry. dirty makes that
// reap check one atomic load on the ingest hot path.
type faultSink struct {
	dirty atomic.Bool
	total atomic.Uint64

	mu      sync.Mutex
	faults  map[QueryID]*QueryFault
	pending []pendingQuar
}

func newFaultSink() *faultSink { return &faultSink{faults: map[QueryID]*QueryFault{}} }

// report records one contained fault for a set of member queries (first
// write wins per query — a group that faults on several shards keeps the
// first stack) and queues the registry cleanup.
func (s *faultSink) report(gid int64, ids []QueryID, f QueryFault) {
	s.mu.Lock()
	for _, id := range ids {
		if _, ok := s.faults[id]; !ok {
			ff := f
			ff.ID = id
			s.faults[id] = &ff
			s.total.Add(1)
		}
	}
	s.pending = append(s.pending, pendingQuar{gid: gid, ids: ids})
	s.mu.Unlock()
	s.dirty.Store(true)
}

// takePending drains the cleanup queue. dirty is cleared first, so a
// report racing the drain at worst re-flags an already-taken entry and the
// next reap finds an empty queue.
func (s *faultSink) takePending() []pendingQuar {
	s.dirty.Store(false)
	s.mu.Lock()
	p := s.pending
	s.pending = nil
	s.mu.Unlock()
	return p
}

// get returns a copy of a query's fault record, or nil.
func (s *faultSink) get(id QueryID) *QueryFault {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.faults[id]; f != nil {
		ff := *f
		return &ff
	}
	return nil
}

// setGroup resolves the group of a merger-side fault recorded before the
// registry could be consulted.
func (s *faultSink) setGroup(id QueryID, gid int64) {
	s.mu.Lock()
	if f := s.faults[id]; f != nil && f.GroupID == 0 {
		f.GroupID = gid
	}
	s.mu.Unlock()
}

// snapshot returns every fault record, sorted by query id.
func (s *faultSink) snapshot() []QueryFault {
	s.mu.Lock()
	out := make([]QueryFault, 0, len(s.faults))
	for _, f := range s.faults {
		out = append(out, *f)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b QueryFault) int { return int(a.ID - b.ID) })
	return out
}

// Faults returns every contained query fault recorded so far, sorted by
// query id. Unlike most runtime APIs it also works after Close, so a
// drained runtime remains inspectable post-mortem.
func (rt *Runtime) Faults() []QueryFault {
	rt.mu.Lock()
	if !rt.closed && rt.faults.dirty.Load() {
		rt.reapFaultsLocked(true)
	}
	rt.mu.Unlock()
	return rt.faults.snapshot()
}

// reapFaultsLocked applies pending quarantines to the registry: each
// faulted group's entry is removed (engine counters folded into the
// retired accumulator, prefix-family bookkeeping unwound), each member's
// registry entry is marked quarantined, and — when broadcast is true —
// every worker is told to drop the group's shard-local state. Callers hold
// mu; the broadcast send phases drop it (see sendLocked), so registry
// reads must not be cached across this call.
func (rt *Runtime) reapFaultsLocked(broadcast bool) {
	for _, pq := range rt.faults.takePending() {
		if pq.gid == 0 {
			// Merger-side (OnMatch) fault: the engine group is healthy —
			// only the panicking query leaves, exactly like Unregister.
			for _, id := range pq.ids {
				reg := rt.live[id]
				if reg == nil || reg.quarantined {
					continue
				}
				reg.quarantined = true
				if gs := rt.groups[reg.key]; gs != nil {
					rt.faults.setGroup(id, gs.gid)
					gs.members--
					if gs.members == 0 {
						rt.dropGroupLocked(reg.key, gs)
					}
				}
				if broadcast {
					rt.broadcastLocked(shardMsg{ts: math.MinInt64 / 2, unreg: id})
				}
			}
			continue
		}
		// Worker-side group fault: the whole group and every member
		// aliased onto it are gone.
		for _, id := range pq.ids {
			if reg := rt.live[id]; reg != nil {
				reg.quarantined = true
			}
		}
		for k, gs := range rt.groups {
			if gs.gid == pq.gid {
				rt.dropGroupLocked(k, gs)
				break
			}
		}
		if broadcast {
			rt.broadcastLocked(shardMsg{ts: math.MinInt64 / 2, quar: pq.gid})
		}
	}
}

// broadcastLocked sends one control message to every worker WITHOUT
// flushing the pending event batches. A reap runs in whichever API call
// first notices the fault, at a stream position that depends on goroutine
// timing; cutting the shard batches there would move every later batch
// boundary, and with it the order of equal-end-time matches, from run to
// run. The message therefore carries no stream time either (events older
// than lastTs may still be pending). Dropping a faulted group a batch
// early or late on the other shards changes nothing a survivor can
// observe. Same locking discipline as sendLocked.
func (rt *Runtime) broadcastLocked(msg shardMsg) {
	rt.sendMu.Lock()
	rt.mu.Unlock()
	for _, w := range rt.workers {
		w.in <- msg
	}
	rt.sendMu.Unlock()
	rt.mu.Lock()
}

// emitMatch runs one query's OnMatch callback under panic containment: a
// panicking callback quarantines its query (and only it — a shared engine
// group keeps serving its other aliases). Runs on the merger goroutine;
// reports whether the callback returned normally.
func (rt *Runtime) emitMatch(pm *pendingMatch) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
			rt.faults.report(0, []QueryID{pm.id}, QueryFault{
				Shard:    MergerShard,
				Site:     string(faultinject.SiteEmit),
				Panic:    fmt.Sprint(r),
				Stack:    string(debug.Stack()),
				StreamTs: pm.end,
			})
		}
	}()
	rt.cfg.test.injector.Hit(faultinject.SiteEmit, MergerShard, int64(pm.id))
	pm.emit(&pm.m.Match)
	return true
}

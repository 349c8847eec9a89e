// Package faultinject is a deterministic fault-injection harness for the
// runtime's chaos tests. An Injector holds a set of rules, each naming an
// injection point (a Site plus an optional shard and subscriber id) and an
// action to take on the Nth hit: panic with a recognizable value, sleep, or
// stall until released. The runtime's shard workers consult the injector —
// when one is configured — at every dispatch boundary, so tests can make a
// specific engine group panic at an exact batch, slow a producer down, or
// freeze a match consumer, all without build tags and with bit-identical
// repeatability (hit counting is the only state, and the worker dispatch
// order is deterministic for a fixed ingest sequence).
//
// Rules with Nth == 0 fire on every hit; Nth == n fires exactly once, on
// the nth matching hit. DeriveNth maps a test seed to a hit number so
// seeded chaos suites can vary the fault position without hand-picking
// constants. Injection is disabled in production simply by leaving the
// runtime's Injector nil: the hot path pays one nil check per dispatch.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Site names a class of injection points in the runtime's dispatch path.
type Site string

// The runtime's injection sites. IDs are the worker's subscriber ids:
// engine-group ids for engine sites, (negative) producer ids for producer
// sites, and query ids for the emit site.
const (
	// SiteEngineBatch fires before an engine group processes one delivered
	// shard batch (router or naive fan-out path).
	SiteEngineBatch Site = "engine.batch"
	// SiteEngineSync fires before an engine group's batch-boundary round
	// (SyncAt) or final flush — for the rounds that run: a shard worker
	// visits only the groups that got events in the batch or still owe a
	// round (see runtime's worker), so an idle group produces no hits until
	// its next delivery or Close.
	SiteEngineSync Site = "engine.sync"
	// SiteProducerBatch fires before a shared-subplan producer processes
	// one delivered shard batch or assembles.
	SiteProducerBatch Site = "producer.batch"
	// SiteEmit fires before a query's OnMatch callback runs on the merger.
	SiteEmit Site = "emit"
	// SiteWALAppend fires inside the WAL writer before an event-batch record
	// is appended; an injected panic models a crash with a torn tail. The id
	// is the number of batch records appended so far (1-based).
	SiteWALAppend Site = "wal.append"
	// SiteWALFsync fires before the WAL writer fsyncs a segment; the id is
	// the number of fsyncs issued so far (1-based).
	SiteWALFsync Site = "wal.fsync"
	// SiteCheckpointWrite fires before a checkpoint record is written; the
	// id is the number of checkpoints written so far (1-based).
	SiteCheckpointWrite Site = "checkpoint.write"
)

// Action is what a rule does when it fires.
type Action int

const (
	// ActPanic panics with an *Injected value (recovered and recorded as a
	// query fault by the runtime's containment layer).
	ActPanic Action = iota
	// ActSleep sleeps for Rule.Sleep, modeling a slow engine or consumer.
	ActSleep
	// ActStall blocks until Injector.Release is called, modeling a stalled
	// engine or consumer reader.
	ActStall
)

// AnyShard matches every shard in a rule.
const AnyShard = -1

// Rule is one armed injection: fire Action on the Nth hit of (Site, Shard,
// ID). Zero fields widen the match: ID == 0 matches any subscriber,
// Shard == AnyShard matches any shard, Nth == 0 fires on every hit.
type Rule struct {
	Site  Site
	Shard int
	ID    int64
	Nth   uint64
	Act   Action
	Sleep time.Duration

	// hits counts matching arrivals, accessed atomically on the armed copy
	// (a plain word so Rule literals stay copyable by Arm).
	hits uint64
}

// Injected is the panic value of ActPanic: the containment layer can
// recognize injected faults (and tests can assert on the captured site).
type Injected struct {
	Site  Site
	Shard int
	ID    int64
	Hit   uint64
}

// Error implements error so recovered injected panics format cleanly.
func (f *Injected) Error() string {
	return fmt.Sprintf("faultinject: %s shard=%d id=%d hit=%d", f.Site, f.Shard, f.ID, f.Hit)
}

// Injector is a set of armed rules consulted by the runtime's workers.
// Hit is called concurrently from every shard worker and the merger; Arm
// publishes rules copy-on-write, so rules may be armed while the runtime
// is already live (e.g. after registration has revealed a group id).
type Injector struct {
	rules atomic.Pointer[[]*Rule]

	armMu    sync.Mutex
	stall    chan struct{}
	released bool

	fired atomic.Uint64
}

// New returns an empty injector.
func New() *Injector {
	return &Injector{stall: make(chan struct{})}
}

// Arm adds a rule; safe while the injector is live (the rule set is
// republished copy-on-write). Returns the injector for chaining.
func (in *Injector) Arm(r Rule) *Injector {
	rc := r
	in.armMu.Lock()
	var rules []*Rule
	if p := in.rules.Load(); p != nil {
		rules = append(rules, *p...)
	}
	rules = append(rules, &rc)
	in.rules.Store(&rules)
	in.armMu.Unlock()
	return in
}

// Fired reports how many rules have fired (across all rules and hits).
func (in *Injector) Fired() uint64 { return in.fired.Load() }

// Release unblocks every past and future ActStall firing. Idempotent.
func (in *Injector) Release() {
	in.armMu.Lock()
	defer in.armMu.Unlock()
	if !in.released {
		in.released = true
		close(in.stall)
	}
}

// Hit reports one arrival at an injection point. It panics, sleeps or
// stalls when an armed rule matches and is due; otherwise it returns
// immediately. Safe for concurrent use.
func (in *Injector) Hit(site Site, shard int, id int64) {
	if in == nil {
		return
	}
	p := in.rules.Load()
	if p == nil {
		return
	}
	for _, r := range *p {
		if r.Site != site {
			continue
		}
		if r.Shard != AnyShard && r.Shard != shard {
			continue
		}
		if r.ID != 0 && r.ID != id {
			continue
		}
		n := atomic.AddUint64(&r.hits, 1)
		if r.Nth != 0 && n != r.Nth {
			continue
		}
		in.fired.Add(1)
		switch r.Act {
		case ActPanic:
			panic(&Injected{Site: site, Shard: shard, ID: id, Hit: n})
		case ActSleep:
			time.Sleep(r.Sleep)
		case ActStall:
			<-in.stall
		}
	}
}

// DeriveNth maps a chaos seed to a deterministic hit number in [1, max],
// so seeded suites vary fault positions without hand-picked constants.
func DeriveNth(seed int64, max uint64) uint64 {
	if max == 0 {
		return 1
	}
	// SplitMix64 finalizer: a good avalanche keeps consecutive seeds from
	// landing on consecutive hits.
	x := uint64(seed) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x%max + 1
}

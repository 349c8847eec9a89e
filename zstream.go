// Package zstream is a cost-based composite-event (CEP) query processor,
// a from-scratch Go implementation of "ZStream: A Cost-based Query
// Processor for Adaptively Detecting Composite Events" (Mei & Madden,
// SIGMOD 2009).
//
// ZStream evaluates PATTERN / WHERE / WITHIN / RETURN queries over event
// streams using tree-shaped physical plans whose operators unify sequence,
// conjunction, disjunction, negation and Kleene closure as variants of a
// join. A cost model (§5.1 of the paper) with a dynamic-programming plan
// search (Algorithm 5) picks the cheapest operator ordering, and the
// engine can re-plan on the fly as stream statistics drift (§5.3).
//
// Quick start:
//
//	q, err := zstream.Compile(`
//	    PATTERN T1; T2; T3
//	    WHERE T1.name = T3.name
//	      AND T2.name = 'Google'
//	      AND T1.price > 1.05 * T2.price
//	      AND T3.price < 0.97 * T2.price
//	    WITHIN 10 secs
//	    RETURN T1, T2, T3`)
//	eng, err := zstream.NewEngine(q, zstream.OnMatch(func(m *zstream.Match) {
//	    fmt.Println(m.Fields)
//	}))
//	for _, ev := range ticks {
//	    eng.Process(ev)
//	}
//	eng.Flush()
//
// # Concurrent multi-query serving
//
// An Engine runs one query on one goroutine. A Runtime hosts many
// registered queries at once and uses every core: it shards the input
// stream by a partition-key attribute across worker goroutines (each
// owning a private per-shard engine for every query), applies
// backpressure through bounded batched queues, and heap-merges the
// per-shard match streams back into a single end-time-ordered output.
// Queries can be registered and unregistered while the stream is live:
//
//	rt := zstream.NewRuntime(zstream.WithShards(8))
//	id, err := rt.Register(q, zstream.OnMatch(func(m *zstream.Match) { ... }))
//	for _, ev := range ticks {
//	    rt.Ingest(ev)
//	}
//	rt.Close()
//
// A *Match passed to an OnMatch callback is borrowed: it is valid only
// until the callback returns (like bufio.Scanner.Bytes), for an Engine and
// a Runtime alike. A callback that keeps a match keeps m.Clone().
//
// Sharded evaluation is partition-local: for queries that equate the
// partition key across all event classes (per-symbol, per-IP, ... — the
// common CEP shape), the merged output is identical to a single Engine
// over the whole stream; see the Runtime type for the exact contract.
package zstream

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/event"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/query"
)

// Event is one primitive stream event (timestamp plus typed attributes).
type Event = event.Event

// Value is a typed attribute value.
type Value = event.Value

// Schema names the attributes of a stream's events.
type Schema = event.Schema

// Match is one detected composite event, with the RETURN-clause fields.
// A callback borrows it until it returns; Clone copies one to keep.
type Match = core.Match

// Field is one RETURN-clause output of a match.
type Field = core.Field

// Stats reports engine counters: matches emitted, assembly rounds run,
// plan switches performed, peak live-buffer bytes and events processed.
type Stats = core.EngineStats

// Re-exported event constructors.
var (
	// NewSchema builds a schema; attribute order defines value order.
	NewSchema = event.NewSchema
	// MustSchema is NewSchema panicking on error.
	MustSchema = event.MustSchema
	// NewEvent builds an event for a schema at a timestamp.
	NewEvent = event.New
	// Float builds a float attribute value; Int and Str build integer and
	// string values.
	Float = event.Float
	// Int builds an integer attribute value.
	Int = event.Int
	// Str builds a string attribute value.
	Str = event.Str
	// NewStock builds an event with the paper's stock schema
	// (id, name, price, volume).
	NewStock = event.NewStock
)

// ErrKleeneAnchor is returned, wrapped, by NewEngine and Runtime.Register
// for a query with a Kleene closure next to anything but a plain event
// class: a closure may open or close the pattern, and otherwise stands
// between two plain classes.
var ErrKleeneAnchor = plan.ErrKleeneAnchor

// Query is a compiled CEP query.
type Query struct {
	q *query.Query
}

// Compile parses, normalizes (§5.2.1 rewrites) and analyzes a query.
func Compile(src string) (*Query, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Query{q: q}, nil
}

// MustCompile is Compile panicking on error.
func MustCompile(src string) *Query {
	q, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return q
}

// String renders the normalized query text.
func (q *Query) String() string { return q.q.String() }

// Window returns the WITHIN constraint in ticks.
func (q *Query) Window() int64 { return q.q.Within }

// Classes returns the event-class aliases in temporal order.
func (q *Query) Classes() []string {
	var out []string
	for _, c := range q.q.Info.Classes {
		out = append(out, c.Alias)
	}
	return out
}

// Plan selects the initial plan strategy.
type Plan int

const (
	// PlanOptimal searches for the cheapest tree with Algorithm 5.
	PlanOptimal Plan = iota
	// PlanLeftDeep forces the left-deep tree.
	PlanLeftDeep
	// PlanRightDeep forces the right-deep tree.
	PlanRightDeep
)

// Option configures an Engine.
type Option func(*engineConfig)

type engineConfig struct {
	cfg  core.Config
	emit func(*Match)
}

// defaultCoreConfig is the baseline engine configuration shared by
// NewEngine and Runtime.Register.
func defaultCoreConfig() core.Config {
	return core.Config{Strategy: core.StrategyOptimal, UseHash: true}
}

// OnMatch installs the match callback; matches arrive in end-time order.
// Each *Match is valid only until f returns (keep m.Clone() instead).
func OnMatch(f func(*Match)) Option {
	return func(c *engineConfig) { c.emit = f }
}

// WithPlan selects the initial plan strategy (default PlanOptimal).
func WithPlan(p Plan) Option {
	return func(c *engineConfig) {
		switch p {
		case PlanLeftDeep:
			c.cfg.Strategy = core.StrategyLeftDeep
		case PlanRightDeep:
			c.cfg.Strategy = core.StrategyRightDeep
		default:
			c.cfg.Strategy = core.StrategyOptimal
		}
	}
}

// WithBatchSize sets the batch-iterator batch size (§4.3; default 64).
func WithBatchSize(n int) Option {
	return func(c *engineConfig) { c.cfg.BatchSize = n }
}

// WithAdaptation enables on-the-fly re-planning (§5.3): statistics are
// sampled at the leaves, and when they drift the plan search re-runs and
// installs a cheaper plan without losing or duplicating matches.
func WithAdaptation() Option {
	return func(c *engineConfig) { c.cfg.Adaptive = true }
}

// WithoutHashing disables hash-based equality predicates (§5.2.2), which
// are on by default.
func WithoutHashing() Option {
	return func(c *engineConfig) { c.cfg.UseHash = false }
}

// WithNegationOnTop forces negation to run as a final filter instead of
// the NSEQ push-down (§4.4.2); for experiments.
func WithNegationOnTop() Option {
	return func(c *engineConfig) { c.cfg.Negation = plan.NegTop }
}

// WithMaxDisorder tolerates events arriving up to d ticks out of order by
// buffering them in a reordering stage (§4.1).
func WithMaxDisorder(d int64) Option {
	return func(c *engineConfig) { c.cfg.MaxDisorder = d }
}

// Engine executes one query over a stream.
type Engine struct {
	eng *core.Engine
}

// NewEngine builds an execution engine for q.
func NewEngine(q *Query, opts ...Option) (*Engine, error) {
	ec := engineConfig{cfg: defaultCoreConfig()}
	for _, o := range opts {
		o(&ec)
	}
	eng, err := core.NewEngine(q.q, ec.cfg, ec.emit)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng}, nil
}

// Process feeds one event. Events must arrive in non-decreasing timestamp
// order unless WithMaxDisorder is set. Events carrying a pre-assigned,
// strictly increasing Seq are adopted untouched (and may be shared with
// other engines); events with Seq == 0 are stamped in place, so the caller
// must not reuse them afterwards.
func (e *Engine) Process(ev *Event) { e.eng.Process(ev) }

// Flush forces a final assembly round, confirming trailing negations and
// closures and emitting all remaining matches.
func (e *Engine) Flush() { e.eng.Flush() }

// Stats returns the engine counters.
func (e *Engine) Stats() Stats { return e.eng.Snapshot() }

// Explain renders the current physical plan, one operator per line.
func (e *Engine) Explain() string { return e.eng.Plan().Explain() }

// Run consumes events from in and sends matches on the returned channel,
// which is closed after in closes and the final flush completes. Matches
// are sent in end-time order (the same order OnMatch observes; an OnMatch
// option passed here is overridden by the channel send), each a Clone the
// receiver owns. The engine is
// constructed before the consuming goroutine starts, so a bad query or
// option combination is reported synchronously as an error and no
// goroutine is leaked. The engine must not be used concurrently elsewhere.
func (q *Query) Run(in <-chan *Event, opts ...Option) (<-chan *Match, error) {
	out := make(chan *Match, 64)
	// Copy rather than append in place: appending could overwrite a
	// caller-owned backing array shared with other option slices.
	all := make([]Option, 0, len(opts)+1)
	all = append(all, opts...)
	all = append(all, OnMatch(func(m *Match) { out <- m.Clone() }))
	eng, err := NewEngine(q, all...)
	if err != nil {
		return nil, err
	}
	go func() {
		defer close(out)
		for ev := range in {
			eng.Process(ev)
		}
		eng.Flush()
	}()
	return out, nil
}

// EstimateCost runs the cost model (§5.1) for q under uniform default
// statistics and returns the optimal plan's estimated cost and its shape
// rendered as a parenthesized unit tree.
func (q *Query) EstimateCost() (costEstimate float64, shape string, err error) {
	st := cost.UniformStats(q.q.Info, q.q.Within, 1)
	r, err := optimizer.Optimize(q.q, st, true)
	if err != nil {
		return 0, "", err
	}
	return r.Estimate.Cost, r.Shape.String(), nil
}

// Package runtime is the concurrent multi-query execution layer above
// internal/core: one Runtime hosts many registered queries at once, shards
// the input stream by a partition key across N worker goroutines (each
// owning a per-shard core.Engine instance for every distinct live query —
// see Cross-query sharing below), ingests events through batched bounded
// channels with backpressure, and merges the per-worker match streams back
// into a single end-time-ordered output (heap-merge driven by per-shard
// watermarks).
//
// # Partitioned semantics
//
// Every event is routed to exactly one shard by hashing its partition-key
// attribute, and each shard evaluates every query over its substream
// independently. A query is therefore evaluated with partition-local
// semantics: matches combine only events that landed in the same shard.
// For queries whose predicates equate the partition key across all event
// classes (e.g. "T1.name = T2.name AND T2.name = T3.name" when partitioned
// by "name", or the paper's §6.5 web-log query equating IPs when
// partitioned by "ip"), every potential match is key-local, so the merged
// output is exactly the output of a single global engine, for any shard
// count. Queries that join across partition keys see only the shard-local
// subset of those combinations; register those on a Runtime with Shards=1
// (or a plain Engine) instead.
//
// # Ordering
//
// Ingest requires globally non-decreasing timestamps (the same contract as
// core.Engine without a reordering stage). Matches are delivered by a
// single merger goroutine in non-decreasing end-time order across all
// queries and shards; per-query callbacks never run concurrently. A
// callback borrows its *core.Match until it returns: the merger recycles
// every match of a release round once the round's callbacks are done.
//
// # Batch rounds
//
// A shard worker's batch costs O(touched), not O(registered queries): an
// engine group gets its batch-boundary round only when it received events
// in the batch or is due one — its match horizon is finite (unconsumed
// final-class instances, parked reorder events, confirmations waiting on
// time), it is adaptive (statistics are clocked per batch), or it reads a
// shared producer that has undrained records for it. Every other group is
// skipped: with nothing buffered to confirm, its round would only advance
// its clock, which its next delivery does anyway (timestamps never
// decrease), and its horizon stays +inf, so it cannot hold the merge
// watermark. Idle clocks settle before snapshots and the final flush.
// Stats.RoundsByShard counts the rounds run.
//
// # Cross-query sharing
//
// Registration shares execution between queries where provably safe
// (match transcripts stay byte-identical):
// textually identical queries collapse onto one engine group whose matches
// fan out to every alias, and queries sharing a canonical class prefix
// (query.SharablePrefix) consume one per-shard materialization of the
// prefix joins (core.Subplan) through refcounted shared readers instead of
// each buffering and assembling it. See docs/ARCHITECTURE.md.
package runtime

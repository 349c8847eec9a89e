package buffer

import (
	"fmt"
	"strings"

	"repro/internal/event"
)

// Slot holds the contribution of one event class to a composite record:
// either a single event (E), a Kleene closure group (Group), or nothing
// (a class not yet assembled, or a NULL negation slot).
type Slot struct {
	E     *event.Event
	Group []*event.Event
}

// IsSet reports whether the slot carries any event(s).
func (s Slot) IsSet() bool { return s.E != nil || len(s.Group) > 0 }

// First returns the temporally first event of the slot, or nil.
func (s Slot) First() *event.Event {
	if s.E != nil {
		return s.E
	}
	if len(s.Group) > 0 {
		return s.Group[0]
	}
	return nil
}

// Last returns the temporally last event of the slot, or nil.
func (s Slot) Last() *event.Event {
	if s.E != nil {
		return s.E
	}
	if n := len(s.Group); n > 0 {
		return s.Group[n-1]
	}
	return nil
}

// Count returns the number of events in the slot.
func (s Slot) Count() int {
	if s.E != nil {
		return 1
	}
	return len(s.Group)
}

// Record is one buffer entry (§4.2): a vector of event slots, the start
// time of the earliest constituent and the end time of the latest. MaxSeq
// is the largest primitive-event sequence number among the constituents;
// for sequential patterns it identifies the triggering final-class event
// and provides the exact watermark used for duplicate-free plan switching.
// MinSeq is the smallest constituent sequence number: a consumer that
// started observing the stream at sequence s (a query registered
// mid-stream reading a shared subplan) must skip records with MinSeq <= s,
// because they embed events the consumer never saw.
type Record struct {
	Slots  []Slot
	Start  int64
	End    int64
	MaxSeq uint64
	MinSeq uint64
}

// Leaf builds a single-event record for a plan with nclasses classes,
// placing the event in slot class.
func Leaf(e *event.Event, class, nclasses int) *Record {
	r := &Record{Slots: make([]Slot, nclasses), Start: e.Ts, End: e.Ts, MaxSeq: e.Seq, MinSeq: e.Seq}
	r.Slots[class] = Slot{E: e}
	return r
}

// Combine merges two records with disjoint slot sets into a new record.
// The result's interval spans both inputs.
func Combine(l, r *Record) *Record {
	n := len(l.Slots)
	out := &Record{Slots: make([]Slot, n)}
	copy(out.Slots, l.Slots)
	for i, s := range r.Slots {
		if s.IsSet() {
			out.Slots[i] = s
		}
	}
	out.Start = l.Start
	if r.Start < out.Start {
		out.Start = r.Start
	}
	out.End = l.End
	if r.End > out.End {
		out.End = r.End
	}
	out.MaxSeq = l.MaxSeq
	if r.MaxSeq > out.MaxSeq {
		out.MaxSeq = r.MaxSeq
	}
	out.MinSeq = l.MinSeq
	if r.MinSeq < out.MinSeq {
		out.MinSeq = r.MinSeq
	}
	return out
}

// Events returns all constituent events in slot order (closure groups
// expanded), for RETURN-clause processing and debugging.
func (r *Record) Events() []*event.Event {
	var out []*event.Event
	for _, s := range r.Slots {
		if s.E != nil {
			out = append(out, s.E)
		} else {
			out = append(out, s.Group...)
		}
	}
	return out
}

// String implements fmt.Stringer.
func (r *Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%d..%d|", r.Start, r.End)
	for i, s := range r.Slots {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch {
		case s.E != nil:
			fmt.Fprintf(&b, "%d:%s@%d", i, s.E.Schema.Name(), s.E.Ts)
		case len(s.Group) > 0:
			fmt.Fprintf(&b, "%d:group(%d)", i, len(s.Group))
		default:
			fmt.Fprintf(&b, "%d:_", i)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Buf is an end-time-ordered sequence of records with a consumption cursor.
// Physically it is a slice with a head offset; evicted prefixes are
// compacted away once they dominate the backing array.
type Buf struct {
	recs   []*Record
	head   int // index of first live record in recs
	cursor int // absolute index (head-relative) of first unconsumed record
	// index, if non-nil, maps equality-attribute values to live records.
	index *HashIndex
	// protected buffers never evict unconsumed records: their consumer
	// stalls consumption until matches are confirmable (trailing negation
	// / closure), so unconsumed records are complete pending matches that
	// EAT reasoning does not apply to.
	protected bool
	// liveHW tracks the high-water mark of live record count for the
	// deterministic peak-memory metric.
	liveHW int
	// evicted accumulates the records removed by EAT eviction since
	// creation (observability counter; consumed-prefix drops are routine
	// consumption and are not counted).
	evicted uint64
	// pool, if non-nil, receives records removed from the buffer
	// (eviction, consumed-prefix drops, Clear) for reuse. See Pool for the
	// ownership contract.
	pool *Pool
}

// SetPool attaches a record pool; removed records are recycled into it.
func (b *Buf) SetPool(p *Pool) { b.pool = p }

// Pool returns the attached record pool (nil when pooling is off).
func (b *Buf) Pool() *Pool { return b.pool }

// New returns an empty buffer.
func New() *Buf { return &Buf{} }

// Len returns the number of live (non-evicted) records.
func (b *Buf) Len() int { return len(b.recs) - b.head }

// At returns the i-th live record (0 = oldest live).
func (b *Buf) At(i int) *Record { return b.recs[b.head+i] }

// LiveHighWater returns the maximum number of simultaneously live records
// observed since creation (peak-memory accounting).
func (b *Buf) LiveHighWater() int { return b.liveHW }

// Append adds a record; records must arrive in non-decreasing End order,
// which every operator guarantees by construction (§4.2). Violations are
// programming errors and panic.
func (b *Buf) Append(r *Record) {
	if n := b.Len(); n > 0 && b.At(n-1).End > r.End {
		panic(fmt.Sprintf("buffer: end-time order violated: appending End=%d after End=%d", r.End, b.At(n-1).End))
	}
	b.recs = append(b.recs, r)
	if b.index != nil {
		b.index.add(r)
	}
	if live := b.Len(); live > b.liveHW {
		b.liveHW = live
	}
}

// AppendUnordered inserts a record keeping end-time order, for the rare
// operators (trailing Kleene closure) whose confirmation order does not
// match end-time order. Insertion never lands before the cursor: a record
// older than already-consumed output is placed at the cursor instead, so
// consumption state stays consistent.
func (b *Buf) AppendUnordered(r *Record) {
	n := b.Len()
	if n == 0 || b.At(n-1).End <= r.End {
		b.Append(r)
		return
	}
	pos := b.LowerBoundEnd(r.End + 1) // first record with End > r.End
	if pos < b.cursor {
		pos = b.cursor
	}
	b.recs = append(b.recs, nil)
	copy(b.recs[b.head+pos+1:], b.recs[b.head+pos:])
	b.recs[b.head+pos] = r
	if b.index != nil {
		b.index.add(r)
	}
	if live := b.Len(); live > b.liveHW {
		b.liveHW = live
	}
}

// Cursor returns the index (into live records) of the first unconsumed
// record.
func (b *Buf) Cursor() int { return b.cursor }

// Unconsumed returns the number of live records at or after the cursor.
func (b *Buf) Unconsumed() int { return b.Len() - b.cursor }

// Consume advances the cursor to the end of the buffer: all current records
// have been consumed (the incremental analogue of "clear RBuf").
func (b *Buf) Consume() { b.cursor = b.Len() }

// Advance moves the cursor forward by k records (partial consumption, used
// when only a prefix of the unconsumed region is confirmed).
func (b *Buf) Advance(k int) {
	b.cursor += k
	if b.cursor > b.Len() {
		b.cursor = b.Len()
	}
}

// ResetCursor rewinds the cursor so every live record is unconsumed again
// (plan switching, §5.3).
func (b *Buf) ResetCursor() { b.cursor = 0 }

// Clear drops all records and resets the cursor (used when discarding the
// intermediate state of a replaced plan). With a pool attached, every
// record (including the already-evicted prefix still parked in the backing
// array) is recycled.
func (b *Buf) Clear() {
	if b.pool != nil {
		for i := range b.recs {
			b.pool.put(b.recs[i])
		}
	}
	clear(b.recs)
	b.recs = b.recs[:0]
	b.head = 0
	b.cursor = 0
	if b.index != nil {
		b.index.clear()
	}
}

// Protect marks the buffer so EvictBefore never removes unconsumed
// records (see the protected field).
func (b *Buf) Protect() { b.protected = true }

// EvictBefore removes leading records whose Start is earlier than eat (the
// earliest allowed timestamp, §4.3). Because records are only ever removed
// from the front, this is not exactly the per-record removal in Algorithms
// 1-4 (which may skip a stale record in the middle); stale survivors are
// additionally filtered during scans. Returns the number evicted.
func (b *Buf) EvictBefore(eat int64) int {
	return b.EvictBeforeLimit(eat, b.Len())
}

// EvictBeforeLimit is EvictBefore with an additional cap on how many
// leading records may go: at most limit records are evicted even when more
// start before eat. Multi-reader wrappers (SharedOut) use the cap to keep
// records alive until every reader has drained them.
func (b *Buf) EvictBeforeLimit(eat int64, limit int) int {
	if l := b.Len(); limit > l {
		limit = l
	}
	if b.protected && b.cursor < limit {
		limit = b.cursor
	}
	n := 0
	for n < limit && b.Len() > 0 && b.At(0).Start < eat {
		if b.index != nil {
			b.index.remove(b.At(0))
		}
		if b.pool != nil {
			b.pool.put(b.recs[b.head])
			b.recs[b.head] = nil
		}
		b.head++
		n++
	}
	b.cursor -= n
	if b.cursor < 0 {
		b.cursor = 0
	}
	b.evicted += uint64(n)
	b.maybeCompact()
	return n
}

// Evicted returns the total number of records removed by EAT eviction
// since creation.
func (b *Buf) Evicted() uint64 { return b.evicted }

// DropConsumedPrefix removes records before the cursor (static mode: a
// consumed right buffer really is cleared, keeping memory bounded exactly
// as Algorithm 1 line 7 does).
func (b *Buf) DropConsumedPrefix() {
	for b.cursor > 0 {
		if b.index != nil {
			b.index.remove(b.At(0))
		}
		if b.pool != nil {
			b.pool.put(b.recs[b.head])
			b.recs[b.head] = nil
		}
		b.head++
		b.cursor--
	}
	b.maybeCompact()
}

func (b *Buf) maybeCompact() {
	if b.head > 64 && b.head > len(b.recs)/2 {
		live := copy(b.recs, b.recs[b.head:])
		for i := live; i < len(b.recs); i++ {
			b.recs[i] = nil
		}
		b.recs = b.recs[:live]
		b.head = 0
	}
}

// LowerBoundEnd returns the index of the first live record with End >= t
// (binary search over the end-time-sorted records).
func (b *Buf) LowerBoundEnd(t int64) int {
	live := b.recs[b.head:]
	lo, hi := 0, len(live)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if live[mid].End < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// BuildIndex attaches a hash index keyed by key(record) to the buffer and
// populates it with the live records. Subsequent Appends maintain it.
func (b *Buf) BuildIndex(key func(*Record) event.Value) *HashIndex {
	b.index = &HashIndex{key: key, m: make(map[event.Value][]*Record)}
	for i := 0; i < b.Len(); i++ {
		b.index.add(b.At(i))
	}
	return b.index
}

// Index returns the attached hash index, or nil.
func (b *Buf) Index() *HashIndex { return b.index }

// HashIndex maps an equality attribute value to the live records carrying
// it (§5.2.2). Removal is lazy-safe: entries are removed on eviction.
// Emptied bucket slices park on a free list and back the next new key, so
// a steady stream of short-lived keys allocates no buckets.
type HashIndex struct {
	key  func(*Record) event.Value
	m    map[event.Value][]*Record
	free [][]*Record // emptied (zero-length, cleared) bucket slices
}

// Probe returns the records whose key equals v. The returned slice is
// owned by the index; callers must not mutate it.
func (ix *HashIndex) Probe(v event.Value) []*Record { return ix.m[v] }

func (ix *HashIndex) add(r *Record) {
	k := ix.key(r)
	rs, ok := ix.m[k]
	if n := len(ix.free); !ok && n > 0 {
		rs, ix.free = ix.free[n-1], ix.free[:n-1]
	}
	ix.m[k] = append(rs, r)
}

func (ix *HashIndex) remove(r *Record) {
	k := ix.key(r)
	rs := ix.m[k]
	for i, x := range rs {
		if x == r {
			copy(rs[i:], rs[i+1:])
			rs[len(rs)-1] = nil // drop the stale tail pointer
			rs = rs[:len(rs)-1]
			break
		}
	}
	if len(rs) > 0 {
		ix.m[k] = rs
		return
	}
	delete(ix.m, k)
	if cap(rs) > 0 {
		ix.free = append(ix.free, rs)
	}
}

func (ix *HashIndex) clear() {
	for _, rs := range ix.m {
		clear(rs)
		ix.free = append(ix.free, rs[:0])
	}
	clear(ix.m)
}

// Keys returns the number of distinct keys currently indexed.
func (ix *HashIndex) Keys() int { return len(ix.m) }

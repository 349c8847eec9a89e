package buffer

// SharedOut extends the single-owner discipline Pool documents to a buffer
// with many readers: a shared subplan's root buffer is owned by exactly one
// producer (whose pool its records return to), while any number of
// consuming queries read it through refcounted ShareReaders. Two rules keep
// pooling sound:
//
//   - Readers never keep references into the shared buffer. Each reader
//     drains new records with Each and must copy what it keeps (Pool.Import
//     into its own pool) before returning — exactly the contract matches
//     and record taps already follow.
//   - The producer only evicts records every attached reader has drained:
//     EvictBefore clamps eviction to the slowest reader's position, so a
//     record is recycled into the producer's pool only once no reader can
//     ever observe it again.
//
// Positions are absolute record indexes (monotone across evictions),
// tracked via a base offset the buffer's head-compaction never disturbs.
// SharedOut is not safe for concurrent use: producer and readers must live
// on one goroutine (the runtime's shard workers provide exactly that).
type SharedOut struct {
	buf     *Buf
	base    uint64 // absolute index of buf's first live record
	readers []*ShareReader
}

// ShareReader is one consumer's cursor into a SharedOut.
type ShareReader struct {
	s      *SharedOut
	next   uint64 // absolute index of the first undrained record
	minSeq uint64 // records with MinSeq <= minSeq are invisible
}

// NewSharedOut wraps a producer-owned buffer for multi-reader consumption.
func NewSharedOut(b *Buf) *SharedOut { return &SharedOut{buf: b} }

// Buf returns the underlying buffer (producer-side access).
func (s *SharedOut) Buf() *Buf { return s.buf }

// Readers returns the number of attached readers.
func (s *SharedOut) Readers() int { return len(s.readers) }

// Attach adds a reader starting at the current end of the buffer: it will
// observe only records appended after this call. minSeq additionally hides
// records embedding any event with sequence number <= minSeq — a query
// registered after stream sequence s passes s, so shared partial matches
// involving events from before its registration stay invisible, exactly as
// if the query had buffered its own prefix from its registration point.
func (s *SharedOut) Attach(minSeq uint64) *ShareReader {
	r := &ShareReader{s: s, next: s.base + uint64(s.buf.Len()), minSeq: minSeq}
	s.readers = append(s.readers, r)
	return r
}

// Detach removes a reader; its position no longer constrains eviction.
func (s *SharedOut) Detach(r *ShareReader) {
	for i, x := range s.readers {
		if x == r {
			s.readers = append(s.readers[:i], s.readers[i+1:]...)
			break
		}
	}
	r.s = nil
}

// Each visits every not-yet-drained record visible to the reader, in buffer
// (end-time) order, and advances the cursor past them. The records remain
// owned by the producer: fn must copy anything it keeps.
func (r *ShareReader) Each(fn func(*Record)) {
	s := r.s
	if s == nil {
		return
	}
	n := s.base + uint64(s.buf.Len())
	for i := r.next; i < n; i++ {
		rec := s.buf.At(int(i - s.base))
		if rec.MinSeq > r.minSeq {
			fn(rec)
		}
	}
	r.next = n
}

// Pending reports in O(1) whether the reader has undrained records
// (visible or not): while it does, its position clamps the producer's
// eviction, so its owner must drain it.
func (r *ShareReader) Pending() bool {
	return r.s != nil && r.next < r.s.base+uint64(r.s.buf.Len())
}

// EvictBefore removes leading records whose Start precedes eat, but never
// past the slowest attached reader: records some reader has not drained
// stay live regardless of eat. Evicted records recycle into the buffer's
// pool (single producer ownership). Returns the number evicted.
func (s *SharedOut) EvictBefore(eat int64) int {
	limit := s.buf.Len()
	for _, r := range s.readers {
		if undrained := int(r.next - s.base); undrained < limit {
			limit = undrained
		}
	}
	n := s.buf.EvictBeforeLimit(eat, limit)
	s.base += uint64(n)
	return n
}

package buffer

import (
	"testing"

	"repro/internal/event"
)

func sharedRec(ts int64, seqs ...uint64) *Record {
	r := &Record{Slots: make([]Slot, 2), Start: ts, End: ts}
	r.MinSeq, r.MaxSeq = seqs[0], seqs[0]
	for _, s := range seqs {
		if s < r.MinSeq {
			r.MinSeq = s
		}
		if s > r.MaxSeq {
			r.MaxSeq = s
		}
	}
	return r
}

func drain(r *ShareReader) []*Record {
	var out []*Record
	r.Each(func(rec *Record) { out = append(out, rec) })
	return out
}

func TestSharedOutReadersSeeOnlyNewRecords(t *testing.T) {
	b := New()
	s := NewSharedOut(b)
	b.Append(sharedRec(1, 1))
	b.Append(sharedRec(2, 2))

	r1 := s.Attach(0)
	if got := drain(r1); len(got) != 0 {
		t.Fatalf("reader attached at end saw %d pre-existing records", len(got))
	}
	if r1.Pending() {
		t.Fatal("freshly attached reader reports pending records")
	}
	b.Append(sharedRec(3, 3))
	b.Append(sharedRec(4, 4))
	if !r1.Pending() {
		t.Fatal("reader with undrained records reports none pending")
	}
	if got := drain(r1); len(got) != 2 {
		t.Fatalf("reader saw %d new records, want 2", len(got))
	}
	if got := drain(r1); len(got) != 0 || r1.Pending() {
		t.Fatalf("re-drain saw %d records (pending=%v), want 0", len(got), r1.Pending())
	}
}

func TestSharedOutMinSeqVisibility(t *testing.T) {
	b := New()
	s := NewSharedOut(b)
	r := s.Attach(10)
	// A record combining an old event (seq 7) with a new one (seq 12) is
	// invisible: the reader's query never observed seq 7.
	b.Append(sharedRec(5, 7, 12))
	b.Append(sharedRec(6, 11, 12))
	got := drain(r)
	if len(got) != 1 || got[0].MinSeq != 11 {
		t.Fatalf("minSeq filter: got %d records (want 1 with MinSeq 11)", len(got))
	}
}

func TestSharedOutEvictionClampedToSlowestReader(t *testing.T) {
	b := New()
	s := NewSharedOut(b)
	fast := s.Attach(0)
	slow := s.Attach(0)
	for ts := int64(1); ts <= 4; ts++ {
		b.Append(sharedRec(ts, uint64(ts)))
	}
	drain(fast)
	// slow has drained nothing: eviction must not remove anything even
	// though every record starts before the EAT.
	if n := s.EvictBefore(100); n != 0 {
		t.Fatalf("evicted %d records past an undrained reader", n)
	}
	if got := drain(slow); len(got) != 4 {
		t.Fatalf("slow reader saw %d records, want 4", len(got))
	}
	if n := s.EvictBefore(3); n != 2 {
		t.Fatalf("evicted %d records, want 2 (Start < 3)", n)
	}
	// Cursors stay correct across eviction (base offset advances).
	b.Append(sharedRec(5, 5))
	if got := drain(fast); len(got) != 1 || got[0].Start != 5 {
		t.Fatalf("fast reader after eviction: %v", got)
	}
	s.Detach(slow)
	if n := s.EvictBefore(100); n != 3 {
		t.Fatalf("evicted %d after detach, want 3", n)
	}
}

func TestEvictBeforeLimit(t *testing.T) {
	b := New()
	for ts := int64(1); ts <= 5; ts++ {
		r := &Record{Slots: make([]Slot, 1), Start: ts, End: ts}
		r.Slots[0] = Slot{E: &event.Event{Ts: ts}}
		b.Append(r)
	}
	if n := b.EvictBeforeLimit(100, 2); n != 2 {
		t.Fatalf("EvictBeforeLimit evicted %d, want 2", n)
	}
	if b.Len() != 3 || b.At(0).Start != 3 {
		t.Fatalf("buffer after limited eviction: len=%d first=%d", b.Len(), b.At(0).Start)
	}
	if n := b.EvictBeforeLimit(4, 10); n != 1 {
		t.Fatalf("EvictBeforeLimit evicted %d, want 1 (only Start < 4)", n)
	}
}

// TestSharedOutDetachMidStreamUnclampsEviction models a consumer
// quarantined mid-stream: a reader that drained part of the buffer and
// then died must, once detached, stop clamping eviction — the remaining
// readers' cursors stay correct across the freed range. This is the
// buffer-level half of the runtime's quarantine sweep (which calls Detach
// for the dead consumer's reader).
func TestSharedOutDetachMidStreamUnclampsEviction(t *testing.T) {
	b := New()
	s := NewSharedOut(b)
	dead := s.Attach(0)
	live := s.Attach(0)
	// The doomed reader drains the first two records, then "dies": its
	// cursor freezes at 2 while the stream keeps appending.
	b.Append(sharedRec(1, 1))
	b.Append(sharedRec(2, 2))
	drain(dead)
	for ts := int64(3); ts <= 6; ts++ {
		b.Append(sharedRec(ts, uint64(ts)))
	}
	drain(live)
	// Eviction is clamped at the dead reader's frozen cursor.
	if got := s.EvictBefore(100); got > 2 {
		t.Fatalf("evicted %d records past the dead reader's cursor", got)
	}
	s.Detach(dead)
	if got := s.EvictBefore(100); got == 0 {
		t.Fatal("detaching the dead reader did not unclamp eviction")
	}
	if b.Len() != 0 {
		t.Fatalf("buffer holds %d records after full eviction", b.Len())
	}
	// The surviving reader keeps working across the freed range.
	b.Append(sharedRec(7, 7))
	if got := drain(live); len(got) != 1 || got[0].Start != 7 {
		t.Fatalf("live reader after eviction: %+v", got)
	}
}

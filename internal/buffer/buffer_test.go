package buffer

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/event"
)

func stockAt(seq uint64, ts int64, name string) *event.Event {
	return event.NewStock(seq, ts, int64(seq), name, 1, 1)
}

func leafRec(ts int64, class, n int) *Record {
	return Leaf(stockAt(uint64(ts), ts, "X"), class, n)
}

func TestSlot(t *testing.T) {
	e1 := stockAt(1, 10, "A")
	e2 := stockAt(2, 20, "A")
	single := Slot{E: e1}
	group := Slot{Group: []*event.Event{e1, e2}}
	empty := Slot{}

	if !single.IsSet() || !group.IsSet() || empty.IsSet() {
		t.Error("IsSet wrong")
	}
	if single.First() != e1 || single.Last() != e1 || single.Count() != 1 {
		t.Error("single slot accessors wrong")
	}
	if group.First() != e1 || group.Last() != e2 || group.Count() != 2 {
		t.Error("group slot accessors wrong")
	}
	if empty.First() != nil || empty.Last() != nil || empty.Count() != 0 {
		t.Error("empty slot accessors wrong")
	}
}

func TestLeafRecord(t *testing.T) {
	e := stockAt(5, 42, "IBM")
	r := Leaf(e, 1, 3)
	if r.Start != 42 || r.End != 42 || r.MaxSeq != 5 {
		t.Errorf("leaf record times wrong: %+v", r)
	}
	if r.Slots[1].E != e || r.Slots[0].IsSet() || r.Slots[2].IsSet() {
		t.Error("leaf slots wrong")
	}
}

func TestCombine(t *testing.T) {
	a := Leaf(stockAt(1, 10, "A"), 0, 3)
	b := Leaf(stockAt(7, 30, "B"), 2, 3)
	c := Combine(a, b)
	if c.Start != 10 || c.End != 30 || c.MaxSeq != 7 {
		t.Errorf("combined times wrong: %+v", c)
	}
	if c.Slots[0].E == nil || c.Slots[2].E == nil || c.Slots[1].IsSet() {
		t.Error("combined slots wrong")
	}
	// inputs untouched
	if a.Slots[2].IsSet() || b.Slots[0].IsSet() {
		t.Error("Combine mutated inputs")
	}
}

func TestCombineCommutativeInterval(t *testing.T) {
	f := func(t1, t2 int16) bool {
		a := Leaf(stockAt(1, int64(t1), "A"), 0, 2)
		b := Leaf(stockAt(2, int64(t2), "B"), 1, 2)
		x, y := Combine(a, b), Combine(b, a)
		return x.Start == y.Start && x.End == y.End && x.MaxSeq == y.MaxSeq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecordEvents(t *testing.T) {
	e1, e2, e3 := stockAt(1, 1, "A"), stockAt(2, 2, "B"), stockAt(3, 3, "B")
	r := &Record{Slots: []Slot{{E: e1}, {Group: []*event.Event{e2, e3}}}, Start: 1, End: 3}
	evs := r.Events()
	if len(evs) != 3 || evs[0] != e1 || evs[1] != e2 || evs[2] != e3 {
		t.Errorf("Events() = %v", evs)
	}
}

func TestAppendOrderEnforced(t *testing.T) {
	b := New()
	b.Append(leafRec(10, 0, 1))
	b.Append(leafRec(10, 0, 1)) // equal End OK
	b.Append(leafRec(20, 0, 1))
	defer func() {
		if recover() == nil {
			t.Error("out-of-order append did not panic")
		}
	}()
	b.Append(leafRec(5, 0, 1))
}

func TestCursor(t *testing.T) {
	b := New()
	for ts := int64(1); ts <= 5; ts++ {
		b.Append(leafRec(ts, 0, 1))
	}
	if b.Cursor() != 0 || b.Unconsumed() != 5 {
		t.Fatalf("initial cursor state wrong: %d %d", b.Cursor(), b.Unconsumed())
	}
	b.Consume()
	if b.Unconsumed() != 0 {
		t.Error("Consume did not advance")
	}
	b.Append(leafRec(6, 0, 1))
	if b.Unconsumed() != 1 || b.At(b.Cursor()).End != 6 {
		t.Error("new record after Consume not visible")
	}
	b.ResetCursor()
	if b.Unconsumed() != 6 {
		t.Error("ResetCursor did not rewind")
	}
}

func TestEvictBefore(t *testing.T) {
	b := New()
	for ts := int64(1); ts <= 10; ts++ {
		b.Append(leafRec(ts, 0, 1))
	}
	b.Consume()
	n := b.EvictBefore(6) // records with Start < 6 go away
	if n != 5 || b.Len() != 5 {
		t.Fatalf("evicted %d, len %d", n, b.Len())
	}
	if b.At(0).Start != 6 {
		t.Errorf("head record start = %d", b.At(0).Start)
	}
	// cursor stays clamped and still marks all-consumed
	if b.Unconsumed() != 0 {
		t.Errorf("unconsumed after evict = %d", b.Unconsumed())
	}
}

func TestEvictCursorClamp(t *testing.T) {
	b := New()
	for ts := int64(1); ts <= 4; ts++ {
		b.Append(leafRec(ts, 0, 1))
	}
	// consume nothing; evict everything
	b.EvictBefore(100)
	if b.Len() != 0 || b.Cursor() != 0 {
		t.Errorf("state after full evict: len=%d cursor=%d", b.Len(), b.Cursor())
	}
}

func TestDropConsumedPrefix(t *testing.T) {
	b := New()
	for ts := int64(1); ts <= 4; ts++ {
		b.Append(leafRec(ts, 0, 1))
	}
	b.Consume()
	b.Append(leafRec(5, 0, 1))
	b.DropConsumedPrefix()
	if b.Len() != 1 || b.At(0).End != 5 || b.Cursor() != 0 {
		t.Errorf("after drop: len=%d cursor=%d", b.Len(), b.Cursor())
	}
}

func TestClear(t *testing.T) {
	b := New()
	b.Append(leafRec(1, 0, 1))
	b.Consume()
	b.Clear()
	if b.Len() != 0 || b.Cursor() != 0 {
		t.Error("Clear left state behind")
	}
	b.Append(leafRec(1, 0, 1)) // usable after clear
	if b.Len() != 1 {
		t.Error("append after clear failed")
	}
}

func TestCompaction(t *testing.T) {
	b := New()
	for ts := int64(1); ts <= 1000; ts++ {
		b.Append(leafRec(ts, 0, 1))
		if ts%10 == 0 {
			b.EvictBefore(ts - 3)
		}
	}
	if b.Len() > 20 {
		t.Errorf("len after eviction = %d", b.Len())
	}
	if len(b.recs) > 256 {
		t.Errorf("backing array not compacted: %d", len(b.recs))
	}
	// order preserved
	for i := 1; i < b.Len(); i++ {
		if b.At(i-1).End > b.At(i).End {
			t.Fatal("order broken after compaction")
		}
	}
}

func TestLowerBoundEnd(t *testing.T) {
	b := New()
	for _, ts := range []int64{2, 4, 4, 8} {
		b.Append(leafRec(ts, 0, 1))
	}
	cases := []struct {
		t    int64
		want int
	}{{1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 3}, {8, 3}, {9, 4}}
	for _, c := range cases {
		if got := b.LowerBoundEnd(c.t); got != c.want {
			t.Errorf("LowerBoundEnd(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestLowerBoundEndProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := New()
	var ends []int64
	ts := int64(0)
	for i := 0; i < 500; i++ {
		ts += int64(rng.Intn(3))
		b.Append(leafRec(ts, 0, 1))
		ends = append(ends, ts)
	}
	for probe := int64(-1); probe <= ts+1; probe++ {
		want := sort.Search(len(ends), func(i int) bool { return ends[i] >= probe })
		if got := b.LowerBoundEnd(probe); got != want {
			t.Fatalf("LowerBoundEnd(%d) = %d, want %d", probe, got, want)
		}
	}
}

func TestHashIndex(t *testing.T) {
	b := New()
	key := func(r *Record) event.Value { return r.Slots[0].E.Get("name") }
	b.Append(Leaf(stockAt(1, 1, "IBM"), 0, 1))
	ix := b.BuildIndex(key)
	b.Append(Leaf(stockAt(2, 2, "Sun"), 0, 1))
	b.Append(Leaf(stockAt(3, 3, "IBM"), 0, 1))

	if got := len(ix.Probe(event.Str("IBM"))); got != 2 {
		t.Errorf("Probe(IBM) = %d records", got)
	}
	if got := len(ix.Probe(event.Str("Sun"))); got != 1 {
		t.Errorf("Probe(Sun) = %d records", got)
	}
	if got := len(ix.Probe(event.Str("Oracle"))); got != 0 {
		t.Errorf("Probe(Oracle) = %d records", got)
	}
	if ix.Keys() != 2 {
		t.Errorf("Keys = %d", ix.Keys())
	}

	// eviction removes from index
	b.EvictBefore(2) // removes ts=1 IBM
	if got := len(ix.Probe(event.Str("IBM"))); got != 1 {
		t.Errorf("Probe(IBM) after evict = %d", got)
	}
	b.Clear()
	if ix.Keys() != 0 {
		t.Errorf("Keys after clear = %d", ix.Keys())
	}
}

// TestHashIndexReusesEmptiedBuckets pins the free list: a key whose last
// record was evicted hands its bucket slice to the next new key, so a
// stream of short-lived keys allocates no buckets, and a recycled bucket
// never leaks its previous key's records into a probe.
func TestHashIndexReusesEmptiedBuckets(t *testing.T) {
	b := New()
	ix := b.BuildIndex(func(r *Record) event.Value { return r.Slots[0].E.Get("name") })
	names := []string{"A", "B", "C", "D"}
	recs := make([]*Record, len(names))
	for i, n := range names {
		recs[i] = Leaf(stockAt(1, 0, n), 0, 1)
	}
	ts := int64(0)
	cycle := func() {
		for _, rec := range recs {
			ts++
			rec.Start, rec.End = ts, ts
			b.Append(rec)
			b.EvictBefore(ts) // the previous key empties as the next arrives
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(100, func() {
		cycle()
		for _, n := range names[:3] {
			if got := ix.Probe(event.Str(n)); len(got) != 0 {
				t.Fatalf("Probe(%s) = %d records after its eviction", n, len(got))
			}
		}
		if got := ix.Probe(event.Str("D")); len(got) != 1 || got[0] != recs[3] {
			t.Fatalf("Probe(D) = %v, want the one live record", got)
		}
	}); avg >= 1 {
		t.Errorf("%.0f allocs per %d-key cycle: emptied buckets are not reused", avg, len(names))
	}
	if ix.Keys() != 1 {
		t.Errorf("Keys = %d, want 1", ix.Keys())
	}
}

func TestHashIndexPrePopulated(t *testing.T) {
	b := New()
	b.Append(Leaf(stockAt(1, 1, "A"), 0, 1))
	b.Append(Leaf(stockAt(2, 2, "A"), 0, 1))
	ix := b.BuildIndex(func(r *Record) event.Value { return r.Slots[0].E.Get("name") })
	if got := len(ix.Probe(event.Str("A"))); got != 2 {
		t.Errorf("pre-populated probe = %d", got)
	}
}

func TestLiveHighWater(t *testing.T) {
	b := New()
	for ts := int64(1); ts <= 8; ts++ {
		b.Append(leafRec(ts, 0, 1))
	}
	b.EvictBefore(8)
	if b.LiveHighWater() != 8 {
		t.Errorf("high water = %d", b.LiveHighWater())
	}
	if b.Len() != 1 {
		t.Errorf("len = %d", b.Len())
	}
}

func TestRecordString(t *testing.T) {
	r := Combine(Leaf(stockAt(1, 10, "A"), 0, 2), Leaf(stockAt(2, 20, "B"), 1, 2))
	if s := r.String(); s == "" {
		t.Error("empty String()")
	}
	g := &Record{Slots: []Slot{{Group: []*event.Event{stockAt(1, 1, "A")}}, {}}, Start: 1, End: 1}
	if s := g.String(); s == "" {
		t.Error("empty String() for group")
	}
}

// Property: after any interleaving of appends (in end order), consumes and
// evictions, the live records remain sorted by End and Start >= the last
// eviction threshold is respected for survivors' scan-visibility.
func TestBufferInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		b := New()
		ts := int64(0)
		eat := int64(-1)
		for op := 0; op < 400; op++ {
			switch rng.Intn(4) {
			case 0, 1:
				ts += int64(rng.Intn(4))
				b.Append(leafRec(ts, 0, 1))
			case 2:
				b.Consume()
			case 3:
				if ts > 0 {
					eat = ts - int64(rng.Intn(10))
					b.EvictBefore(eat)
				}
			}
			for i := 1; i < b.Len(); i++ {
				if b.At(i-1).End > b.At(i).End {
					t.Fatal("end order violated")
				}
			}
			if b.Cursor() < 0 || b.Cursor() > b.Len() {
				t.Fatalf("cursor out of range: %d/%d", b.Cursor(), b.Len())
			}
		}
	}
}

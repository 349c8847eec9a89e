package runtime

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/query"
)

// riseSrc builds a two-step price-rise query pinned to one symbol, so
// fault tests can aim events (and faults) at exactly one engine group.
func riseSrc(sym string) string {
	return fmt.Sprintf(`PATTERN A; B
		WHERE A.name = '%s' AND B.name = '%s' AND B.price > A.price
		WITHIN 100 units RETURN A, B`, sym, sym)
}

// gidOf resolves a registered query's engine-group id. Test-only: reads
// the registry without mu, valid while no other goroutine calls the API.
func gidOf(t *testing.T, rt *Runtime, id QueryID) int64 {
	t.Helper()
	reg := rt.live[id]
	if reg == nil {
		t.Fatalf("query %d not in registry", id)
	}
	gs := rt.groups[reg.key]
	if gs == nil {
		t.Fatalf("query %d has no group", id)
	}
	return gs.gid
}

// feedSym ingests n rising ticks for one symbol starting at ts, returning
// the next free timestamp. Prices rise so every consecutive pair matches.
func feedSym(t *testing.T, rt *Runtime, sym string, n int, ts int64) int64 {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := rt.Ingest(event.NewStock(uint64(ts), ts, ts, sym, float64(10+i), 1)); err != nil {
			t.Fatal(err)
		}
		ts++
	}
	return ts
}

// syncShards round-trips an op through every worker (via Explain's snap),
// guaranteeing all previously flushed batches — and any panic they
// triggered, including the quarantine sweep — are fully processed.
func syncShards(t *testing.T, rt *Runtime, id QueryID) {
	t.Helper()
	if _, err := rt.Explain(id); err != nil {
		t.Fatalf("syncShards Explain(%d): %v", id, err)
	}
}

// waitFaults polls until n fault records exist — for tests where every
// registered query is a victim, so there is no healthy id to sync on.
func waitFaults(t *testing.T, rt *Runtime, n int) []QueryFault {
	t.Helper()
	var got []QueryFault
	for i := 0; i < 400; i++ {
		if got = rt.Faults(); len(got) >= n {
			return got
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("faults = %+v after 2s, want %d", got, n)
	return nil
}

func TestQuarantineIsolatesEngineFault(t *testing.T) {
	inj := faultinject.New()
	rt := New(Config{Shards: 2, BatchSize: 4, test: testHooks{injector: inj}})
	defer rt.Close()

	var ibm, sun atomic.Int64
	idIBM, err := rt.Register(query.MustParse(riseSrc("IBM")), core.Config{}, func(*core.Match) { ibm.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	idSUN, err := rt.Register(query.MustParse(riseSrc("SUN")), core.Config{}, func(*core.Match) { sun.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm(faultinject.Rule{Site: faultinject.SiteEngineBatch, Shard: faultinject.AnyShard,
		ID: gidOf(t, rt, idIBM), Nth: 1, Act: faultinject.ActPanic})

	ts := feedSym(t, rt, "IBM", 4, 1) // flushes one batch: the panic fires
	ts = feedSym(t, rt, "SUN", 4, ts)
	syncShards(t, rt, idSUN)

	faults := rt.Faults()
	if len(faults) != 1 {
		t.Fatalf("faults = %+v, want exactly one", faults)
	}
	f := faults[0]
	if f.ID != idIBM || f.Site != "engine.batch" || f.GroupID == 0 {
		t.Errorf("fault record = %+v", f)
	}
	if !strings.Contains(f.Panic, "faultinject") || f.Stack == "" {
		t.Errorf("fault missing panic/stack: %+v", f)
	}

	st := rt.Stats()
	if st.QuarantinedQueries != 1 || st.Faults != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.LiveQueries != 1 {
		t.Errorf("LiveQueries = %d, want 1 (SUN only)", st.LiveQueries)
	}

	// Explain on the quarantined id: a QueryFaultError carrying the record.
	_, err = rt.Explain(idIBM)
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Explain(quarantined) = %v, want ErrQuarantined", err)
	}
	var qfe *QueryFaultError
	if !errors.As(err, &qfe) || qfe.Fault.ID != idIBM {
		t.Fatalf("errors.As(QueryFaultError) failed: %v", err)
	}

	// The healthy query keeps running after the fault.
	sunBefore := sun.Load()
	feedSym(t, rt, "SUN", 8, ts)
	syncShards(t, rt, idSUN)
	if _, err := rt.CloseContext(nil); err != nil {
		t.Fatalf("close: %v", err)
	}
	if sun.Load() <= sunBefore {
		t.Errorf("healthy query stopped matching after sibling fault: %d -> %d", sunBefore, sun.Load())
	}
	// Faults stays inspectable post-Close.
	if got := rt.Faults(); len(got) != 1 || got[0].ID != idIBM {
		t.Errorf("Faults() after Close = %+v", got)
	}
}

func TestUnregisterAndReregisterQuarantined(t *testing.T) {
	inj := faultinject.New()
	rt := New(Config{Shards: 1, BatchSize: 2, test: testHooks{injector: inj}})
	defer rt.Close()

	var n int
	id, err := rt.Register(query.MustParse(riseSrc("IBM")), core.Config{}, func(*core.Match) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm(faultinject.Rule{Site: faultinject.SiteEngineBatch, Shard: faultinject.AnyShard,
		ID: gidOf(t, rt, id), Nth: 1, Act: faultinject.ActPanic})
	ts := feedSym(t, rt, "IBM", 2, 1)
	waitFaults(t, rt, 1)

	// Unregistering the quarantined id removes the registry entry...
	if err := rt.Unregister(id); err != nil {
		t.Fatalf("Unregister(quarantined) = %v", err)
	}
	if err := rt.Unregister(id); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("second Unregister = %v, want ErrUnknownQuery", err)
	}
	// ...but the fault record stays.
	if got := rt.Faults(); len(got) != 1 {
		t.Fatalf("fault record lost on Unregister: %+v", got)
	}

	// Re-registering the same query text starts a fresh, working group.
	id2, err := rt.Register(query.MustParse(riseSrc("IBM")), core.Config{}, func(*core.Match) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("re-registration reused quarantined id %d", id)
	}
	feedSym(t, rt, "IBM", 6, ts)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("re-registered query produced no matches")
	}
	if st := rt.Stats(); st.Faults != 1 {
		t.Errorf("Faults counter = %d, want 1 (survives unregister)", st.Faults)
	}
}

func TestDedupeGroupFaultTakesAllAliases(t *testing.T) {
	inj := faultinject.New()
	rt := New(Config{Shards: 1, BatchSize: 2, test: testHooks{injector: inj}})
	defer rt.Close()

	src := riseSrc("IBM")
	idA, err := rt.Register(query.MustParse(src), core.Config{}, func(*core.Match) {})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := rt.Register(query.MustParse(src), core.Config{}, func(*core.Match) {})
	if err != nil {
		t.Fatal(err)
	}
	gid := gidOf(t, rt, idA)
	if gid != gidOf(t, rt, idB) {
		t.Fatal("textually identical queries did not dedupe onto one group")
	}
	inj.Arm(faultinject.Rule{Site: faultinject.SiteEngineBatch, Shard: faultinject.AnyShard,
		ID: gid, Nth: 1, Act: faultinject.ActPanic})
	feedSym(t, rt, "IBM", 2, 1)

	faults := waitFaults(t, rt, 2)
	for _, f := range faults {
		if f.GroupID != gid || f.Site != "engine.batch" {
			t.Errorf("fault record = %+v", f)
		}
	}
	if st := rt.Stats(); st.QuarantinedQueries != 2 || st.LiveQueries != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestAliasOntoQuarantinedGroup arms a sync-round panic before any
// registration: the first query's group quarantines on its first round —
// the batch that first delivers it events, since an engine that received
// nothing owes no round. A second, textually identical query
// then races the fault report: either the registry reaped first (the new
// query gets a fresh healthy group) or it aliased onto the dying group and
// the worker rejects the alias with a register.alias fault. Both outcomes
// are correct; silently running nowhere is the bug this guards against.
func TestAliasOntoQuarantinedGroup(t *testing.T) {
	inj := faultinject.New().Arm(faultinject.Rule{Site: faultinject.SiteEngineSync,
		Shard: faultinject.AnyShard, Nth: 1, Act: faultinject.ActPanic})
	rt := New(Config{Shards: 1, BatchSize: 2, test: testHooks{injector: inj}})
	defer rt.Close()

	src := riseSrc("IBM")
	idA, err := rt.Register(query.MustParse(src), core.Config{}, func(*core.Match) {})
	if err != nil {
		t.Fatal(err)
	}
	ts := feedSym(t, rt, "IBM", 2, 1)
	waitFaults(t, rt, 1)
	idB, err := rt.Register(query.MustParse(src), core.Config{}, func(*core.Match) {})
	if err != nil {
		t.Fatal(err)
	}
	feedSym(t, rt, "IBM", 4, ts)
	syncAll := func() {
		// Roundtrip via Stats + Faults (Explain may legitimately fail).
		rt.Stats()
		rt.Faults()
	}
	syncAll()

	foundA := false
	for _, f := range rt.Faults() {
		switch f.ID {
		case idA:
			foundA = true
			if f.Site != "engine.sync" {
				t.Errorf("first query's fault = %+v", f)
			}
		case idB:
			if f.Site != "register.alias" || f.GroupID == 0 {
				t.Errorf("aliased query's fault = %+v", f)
			}
		}
	}
	if !foundA {
		t.Errorf("first query has no fault record: %+v", rt.Faults())
	}
	// Whichever way the race went, idB must be accounted for: either live
	// (fresh group) or quarantined (inherited fault) — never lost.
	st := rt.Stats()
	if st.LiveQueries+st.QuarantinedQueries != 2 {
		t.Errorf("stats lose a query: %+v", st)
	}
}

func TestEmitFaultQuarantinesOnlyThatAlias(t *testing.T) {
	rt := New(Config{Shards: 1, BatchSize: 2})
	defer rt.Close()

	src := riseSrc("IBM")
	var healthy atomic.Int64
	idBad, err := rt.Register(query.MustParse(src), core.Config{}, func(*core.Match) {
		panic("consumer exploded")
	})
	if err != nil {
		t.Fatal(err)
	}
	idOK, err := rt.Register(query.MustParse(src), core.Config{}, func(*core.Match) { healthy.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	ts := feedSym(t, rt, "IBM", 6, 1)
	syncShards(t, rt, idOK)

	// Wait for the merger to release the first matches (release lags the
	// watermark; more input advances it).
	for i := 0; i < 50 && len(rt.Faults()) == 0; i++ {
		ts = feedSym(t, rt, "IBM", 2, ts)
		syncShards(t, rt, idOK)
	}
	faults := rt.Faults()
	if len(faults) != 1 {
		t.Fatalf("faults = %+v, want the panicking alias only", faults)
	}
	f := faults[0]
	if f.ID != idBad || f.Shard != MergerShard || f.Site != "emit" ||
		!strings.Contains(f.Panic, "consumer exploded") {
		t.Errorf("fault record = %+v", f)
	}
	// The innocent alias — same engine group — keeps matching.
	before := healthy.Load()
	feedSym(t, rt, "IBM", 6, ts)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if healthy.Load() <= before {
		t.Errorf("innocent dedupe alias stopped matching: %d -> %d", before, healthy.Load())
	}
	if st := rt.Stats(); st.QuarantinedQueries != 1 || st.EngineGroups != 1 {
		t.Errorf("stats = %+v (group must survive an emit fault)", st)
	}
}

// TestQuarantinedConsumerDetachesFromProducer is the shared-prefix
// teardown guarantee: when a consumer group is quarantined mid-stream, its
// ShareReader must be detached from the family's producer, or the dead
// consumer's cursor would clamp eviction and pin the producer's buffer
// for the rest of the run.
func TestQuarantinedConsumerDetachesFromProducer(t *testing.T) {
	inj := faultinject.New()
	rt := New(Config{Shards: 1, BatchSize: 4, test: testHooks{injector: inj}})
	defer rt.Close()

	prefix := `PATTERN A; B; C
		WHERE A.name = 'IBM' AND B.name = 'IBM' AND B.price > A.price
		  AND C.name = 'IBM' AND C.price %s
		WITHIN 100 units RETURN A, B, C`
	var ids []QueryID
	for _, suffix := range []string{"> 11", "> 12", "> 13"} {
		id, err := rt.Register(query.MustParse(fmt.Sprintf(prefix, suffix)), core.Config{}, func(*core.Match) {})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// The first registrant runs the prefix privately; the second and
	// third are consumers of the shared producer. Kill one consumer,
	// observe the producer through the other.
	var consumers []QueryID
	for _, id := range ids {
		if gs := rt.groups[rt.live[id].key]; gs != nil && gs.consumer {
			consumers = append(consumers, id)
		}
	}
	if len(consumers) < 2 {
		t.Fatalf("consumers = %v, want >= 2; sharing not engaged", consumers)
	}
	victim, survivor := consumers[0], consumers[1]

	doc, err := rt.Explain(survivor)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Sharing == nil || doc.Sharing.ProducerID == 0 {
		t.Fatal("survivor not attached to a shared producer; test is vacuous")
	}
	readersBefore := doc.Sharing.ProducerReaders
	if readersBefore < 2 {
		t.Fatalf("ProducerReaders = %d before fault, want >= 2", readersBefore)
	}

	inj.Arm(faultinject.Rule{Site: faultinject.SiteEngineBatch, Shard: faultinject.AnyShard,
		ID: gidOf(t, rt, victim), Nth: 1, Act: faultinject.ActPanic})
	feedSym(t, rt, "IBM", 4, 1)
	syncShards(t, rt, survivor)
	if got := waitFaults(t, rt, 1); got[0].ID != victim {
		t.Fatalf("faults = %+v, want %d quarantined", got, victim)
	}

	doc, err = rt.Explain(survivor)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Sharing.ProducerReaders; got != readersBefore-1 {
		t.Errorf("ProducerReaders after quarantine = %d, want %d (dead consumer must detach)",
			got, readersBefore-1)
	}
}

func TestFaultMetricsExposed(t *testing.T) {
	inj := faultinject.New()
	rt := New(Config{Shards: 1, BatchSize: 2, test: testHooks{injector: inj}})
	defer rt.Close()
	id, err := rt.Register(query.MustParse(riseSrc("IBM")), core.Config{}, func(*core.Match) {})
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm(faultinject.Rule{Site: faultinject.SiteEngineBatch, Shard: faultinject.AnyShard,
		ID: gidOf(t, rt, id), Nth: 1, Act: faultinject.ActPanic})
	feedSym(t, rt, "IBM", 2, 1)
	waitFaults(t, rt, 1)
	var b strings.Builder
	if err := rt.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"zstream_quarantined_queries 1",
		"zstream_query_faults_total 1",
		"zstream_ingest_shed_events_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestTypedErrors(t *testing.T) {
	rt := New(Config{Shards: 1, BatchSize: 1})
	if err := rt.Ingest(event.NewStock(1, 100, 1, "IBM", 10, 1)); err != nil {
		t.Fatal(err)
	}
	err := rt.Ingest(event.NewStock(2, 50, 2, "IBM", 10, 1))
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("regressing ingest = %v, want ErrOutOfOrder", err)
	}
	var ooo *OutOfOrderError
	if !errors.As(err, &ooo) || ooo.Ts != 50 || ooo.Last != 100 {
		t.Fatalf("OutOfOrderError = %+v", ooo)
	}

	err = rt.Unregister(QueryID(404))
	if !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("Unregister(404) = %v, want ErrUnknownQuery", err)
	}
	var uq *UnknownQueryError
	if !errors.As(err, &uq) || uq.ID != 404 {
		t.Fatalf("UnknownQueryError = %+v", uq)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPostCloseConcurrentCallers drives every public entry point from many
// goroutines against a closed runtime: all must return ErrClosed (or
// succeed, for the post-mortem inspectors) without racing or panicking.
func TestPostCloseConcurrentCallers(t *testing.T) {
	rt := New(Config{Shards: 2, BatchSize: 4})
	id, err := rt.Register(query.MustParse(riseSrc("IBM")), core.Config{}, func(*core.Match) {})
	if err != nil {
		t.Fatal(err)
	}
	feedSym(t, rt, "IBM", 8, 1)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch g % 4 {
				case 0:
					if err := rt.Ingest(event.NewStock(1, 1000, 1, "IBM", 10, 1)); !errors.Is(err, ErrClosed) {
						t.Errorf("Ingest post-Close = %v", err)
					}
				case 1:
					if _, err := rt.Register(query.MustParse(riseSrc("SUN")), core.Config{}, nil); !errors.Is(err, ErrClosed) {
						t.Errorf("Register post-Close = %v", err)
					}
					if err := rt.Unregister(id); !errors.Is(err, ErrClosed) {
						t.Errorf("Unregister post-Close = %v", err)
					}
				case 2:
					if _, err := rt.Explain(id); !errors.Is(err, ErrClosed) {
						t.Errorf("Explain post-Close = %v", err)
					}
					rt.Faults() // must keep working post-Close
				case 3:
					rt.Stats()
					if err := rt.Close(); err != nil {
						t.Errorf("repeat Close = %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

package runtime

import (
	"context"
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

// stallWorker arms a one-shot stall on the first engine batch and returns
// once the worker is provably parked inside it (its queue is then empty).
// The tests build exact queue states on top: fill the queue, then drive
// the deadline under test with deterministic outcomes.
func stallWorker(t *testing.T, rt *Runtime, inj *faultinject.Injector, sym string) {
	t.Helper()
	inj.Arm(faultinject.Rule{Site: faultinject.SiteEngineBatch, Shard: faultinject.AnyShard,
		Nth: 1, Act: faultinject.ActStall})
	if err := rt.Ingest(event.NewStock(1, 1, 1, sym, 10, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400 && inj.Fired() == 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if inj.Fired() == 0 {
		t.Fatal("worker never reached the stall point")
	}
}

func TestIngestContextHonorsDeadline(t *testing.T) {
	inj := faultinject.New()
	rt := New(Config{Shards: 1, BatchSize: 1, QueueLen: 1, test: testHooks{injector: inj}})
	defer func() { inj.Release(); rt.Close() }()

	if _, err := rt.Register(query.MustParse(riseSrc("IBM")), core.Config{},
		func(*core.Match) {}); err != nil {
		t.Fatal(err)
	}
	stallWorker(t, rt, inj, "IBM")
	feedSym(t, rt, "IBM", 1, 10) // fills the queue

	// Backpressure would wait forever; the context bounds it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := rt.IngestContext(ctx, event.NewStock(20, 20, 20, "IBM", 10, 1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("IngestContext past deadline = %v", err)
	}
	if st := rt.Stats(); st.EventsShed != 1 || st.ShedByShard[0] != 1 {
		t.Fatalf("stats = EventsShed %d ShedByShard %v, want 1 on shard 0 (the undeliverable batch)",
			st.EventsShed, st.ShedByShard)
	}

	// An already-expired context fails fast without touching the stream.
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := rt.IngestContext(expired, event.NewStock(30, 30, 30, "IBM", 10, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("IngestContext with canceled ctx = %v", err)
	}

	inj.Release()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// A snapshot op would block on the stalled queue, so the Prometheus
	// surface is checked post-Close (shed counters come from Stats).
	var b strings.Builder
	if err := rt.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `zstream_ingest_shed_events_total{shard="0"} 1`) {
		t.Errorf("metrics missing shed counter:\n%s", b.String())
	}
}

func TestCloseContextBoundedDrainAndReawait(t *testing.T) {
	inj := faultinject.New()
	rt := New(Config{Shards: 1, BatchSize: 4, QueueLen: 1, test: testHooks{injector: inj}})

	var matches atomic.Int64
	if _, err := rt.Register(query.MustParse(riseSrc("IBM")), core.Config{},
		func(*core.Match) { matches.Add(1) }); err != nil {
		t.Fatal(err)
	}
	inj.Arm(faultinject.Rule{Site: faultinject.SiteEngineBatch, Shard: faultinject.AnyShard,
		Nth: 1, Act: faultinject.ActStall})
	feedSym(t, rt, "IBM", 4, 1) // one full batch: the worker parks on it
	for i := 0; i < 400 && inj.Fired() == 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if inj.Fired() == 0 {
		t.Fatal("worker never reached the stall point")
	}
	feedSym(t, rt, "IBM", 4, 10) // second batch fills the queue
	feedSym(t, rt, "IBM", 3, 20) // three events stay buffered, unflushed

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rep, err := rt.CloseContext(ctx)
	if rep.Complete || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded drain = %+v, %v; want incomplete + deadline error", rep, err)
	}
	if rep.EventsShed != 3 {
		t.Errorf("drain shed %d events, want the 3 undeliverable buffered ones", rep.EventsShed)
	}
	if err := rt.Ingest(event.NewStock(99, 99, 99, "IBM", 10, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after timed-out drain = %v, want ErrClosed", err)
	}

	// Unblock the worker and re-await: the drain must now complete, and
	// the queued batches must have been evaluated, not dropped.
	inj.Release()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	rep2, err := rt.CloseContext(ctx2)
	if err != nil || !rep2.Complete {
		t.Fatalf("re-awaited drain = %+v, %v", rep2, err)
	}
	if matches.Load() == 0 {
		t.Error("queued batches were not evaluated during the drain")
	}
}

// TestCloseRacesIngestRegisterUnregister hammers Close from one goroutine
// while others ingest, register, unregister and inspect (Metrics included,
// whose reply comes from the merger Close stops); odd rounds stop the
// runtime with a simulated crash instead. Run under -race
// this is the lock-ordering proof for the sendMu/mu split; semantically,
// every call must return either success or a typed sentinel — never hang,
// panic, or corrupt.
func TestCloseRacesIngestRegisterUnregister(t *testing.T) {
	for round := 0; round < 5; round++ {
		rt := New(Config{Shards: 2, BatchSize: 8, QueueLen: 2})
		var ts atomic.Int64
		var wg sync.WaitGroup
		stop := make(chan struct{})

		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sym := fmt.Sprintf("S%02d", g)
				for {
					select {
					case <-stop:
						return
					default:
					}
					err := rt.Ingest(event.NewStock(1, ts.Add(1), 1, sym, 10, 1))
					if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrOutOfOrder) {
						t.Errorf("Ingest = %v", err)
						return
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ids []QueryID
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id, err := rt.Register(query.MustParse(riseSrc(fmt.Sprintf("S%02d", i%3))),
					core.Config{}, func(*core.Match) {})
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("Register = %v", err)
					}
					return
				}
				ids = append(ids, id)
				if len(ids) > 4 {
					old := ids[0]
					ids = ids[1:]
					if err := rt.Unregister(old); err != nil &&
						!errors.Is(err, ErrClosed) && !errors.Is(err, ErrUnknownQuery) {
						t.Errorf("Unregister = %v", err)
						return
					}
				}
				rt.Stats()
				rt.Metrics() // waits on the merger, which Close may be stopping
				rt.Faults()
			}
		}()

		time.Sleep(10 * time.Millisecond)
		if round%2 == 1 {
			rt.crash() // stops the merger without the final flush
		} else if err := rt.Close(); err != nil {
			t.Fatalf("Close = %v", err)
		}
		close(stop)
		wg.Wait()
	}
}

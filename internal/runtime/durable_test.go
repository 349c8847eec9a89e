package runtime

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/query"
	"repro/internal/wal"
)

// durableQuerySrcs is the query mix for the crash-recovery suite: the
// router-exercising templates plus an exact duplicate of the first query,
// so whole-query dedupe aliasing is recovered too. StrategyLeftDeep keeps
// plans fixed — adaptive replans may legally reorder equal-end-time ties,
// which would make byte-comparison against a reference run too strict.
func durableQuerySrcs() []string {
	srcs := fanoutQuerySrcs(10, 4)
	return append(srcs, srcs[0])
}

// runDurable registers srcs, feeds events[from:], and returns the runtime
// plus the first ingest/register error (the armed crash). transcript
// collects deliveries as "q<idx> <canon>" lines, where idx is the
// zero-based registration index (recovered ids map back to it).
func runDurable(t *testing.T, dir string, srcs []string, cfg Config, ecfg core.Config, inj *faultinject.Injector, events []*event.Event, from uint64, transcript *[]string) (*Runtime, error) {
	t.Helper()
	cfg.test.injector = inj
	cfg.test.poison = true
	cfg.Durability = &DurConfig{Dir: dir, Fsync: wal.FsyncBatch, CheckpointEvery: 300,
		RecoverEmit: func(id QueryID, src string) func(*core.Match) {
			return func(m *core.Match) {
				*transcript = append(*transcript, fmt.Sprintf("q%03d %s", int(id)-1, canon(m)))
			}
		}}
	rt, info, err := NewDurable(cfg)
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	if info.Queries == 0 {
		for i, src := range srcs {
			i := i
			q := query.MustParse(src)
			if _, rerr := rt.Register(q, ecfg, func(m *core.Match) {
				*transcript = append(*transcript, fmt.Sprintf("q%03d %s", i, canon(m)))
			}); rerr != nil {
				return rt, rerr
			}
		}
	}
	if from == 0 {
		from = info.LastSeq
	}
	for _, ev := range events[from:] {
		cp := *ev
		if ierr := rt.Ingest(&cp); ierr != nil {
			return rt, ierr
		}
	}
	return rt, nil
}

// TestDurableCrashRecoveryDifferential is the crash-recovery differential
// suite: for every WAL crash site × shard count × sharing mode × dispatch
// path, a run crashed mid-stream and recovered with NewDurable (resuming
// the source from the durable position) must produce, pre-crash plus
// post-recovery, exactly the crash-free run's transcript — same matches,
// same order, byte-identical. Exactly-once at the OnMatch boundary.
func TestDurableCrashRecoveryDifferential(t *testing.T) {
	srcs := durableQuerySrcs()
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}
	events := stockStream(1500, 8, 7)
	nq := uint64(len(srcs))
	sites := []struct {
		site faultinject.Site
		nth  uint64
	}{
		// Mid-stream ordinals: append counts batch records; fsync counts
		// syncs (one per record under FsyncBatch, incl. registration
		// checkpoints); checkpoint counts the recovery checkpoint, one per
		// registration, then the periodic cadence.
		{faultinject.SiteWALAppend, 4},
		{faultinject.SiteWALFsync, nq + 8},
		{faultinject.SiteCheckpointWrite, nq + 3},
	}
	for _, shards := range []int{1, 2, 3} {
		for _, noShare := range []bool{false, true} {
			for _, naive := range []bool{false, true} {
				base := Config{Shards: shards, BatchSize: 128, test: testHooks{noSharing: noShare, naiveFanout: naive}}
				// Crash-free reference on a fresh log.
				var ref []string
				rt, err := runDurable(t, t.TempDir(), srcs, base, ecfg, nil, events, 0, &ref)
				if err != nil {
					t.Fatalf("reference run failed: %v", err)
				}
				if err := rt.Close(); err != nil {
					t.Fatalf("reference close: %v", err)
				}
				if len(ref) == 0 {
					t.Fatal("reference run produced no matches; suite is vacuous")
				}
				for _, sc := range sites {
					name := fmt.Sprintf("shards=%d/nosharing=%v/naive=%v/%s", shards, noShare, naive, sc.site)
					t.Run(name, func(t *testing.T) {
						dir := t.TempDir()
						inj := faultinject.New().Arm(faultinject.Rule{
							Site: sc.site, Shard: faultinject.AnyShard, Nth: sc.nth, Act: faultinject.ActPanic,
						})
						var got []string
						rt, err := runDurable(t, dir, srcs, base, ecfg, inj, events, 0, &got)
						if err == nil {
							t.Fatal("armed crash site never fired")
						}
						var we *wal.Error
						if !errors.As(err, &we) || !we.Simulated {
							t.Fatalf("expected a simulated WAL crash, got %v", err)
						}
						rt.crash()

						rt2, err := runDurable(t, dir, srcs, base, ecfg, nil, events, 0, &got)
						if err != nil {
							t.Fatalf("post-recovery run failed: %v", err)
						}
						if err := rt2.Close(); err != nil {
							t.Fatalf("post-recovery close: %v", err)
						}
						st := rt2.Stats()
						if !st.WALEnabled {
							t.Error("recovered runtime lost durability")
						}
						diffTranscripts(t, ref, got)
					})
				}
			}
		}
	}
}

// TestDurableCleanRestart: closing a durable runtime cleanly and reopening
// the same log must re-register the checkpointed queries, replay without
// emitting anything (everything is at or below the durable emit
// watermark), and resume at the durable position.
func TestDurableCleanRestart(t *testing.T) {
	srcs := durableQuerySrcs()
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}
	events := stockStream(900, 8, 11)
	dir := t.TempDir()
	base := Config{Shards: 2, BatchSize: 128}

	var first []string
	rt, err := runDurable(t, dir, srcs, base, ecfg, nil, events, 0, &first)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("no matches; test is vacuous")
	}

	var second []string
	cfg := base
	cfg.Durability = &DurConfig{Dir: dir,
		RecoverEmit: func(id QueryID, src string) func(*core.Match) {
			return func(m *core.Match) { second = append(second, canon(m)) }
		}}
	rt2, info, err := NewDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Queries != len(srcs) {
		t.Errorf("recovered %d queries, want %d", info.Queries, len(srcs))
	}
	if info.LastSeq != uint64(len(events)) {
		t.Errorf("recovered last_seq=%d, want %d", info.LastSeq, len(events))
	}
	if err := rt2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(second) != 0 {
		t.Errorf("clean restart re-emitted %d matches; want 0 (all suppressed)", len(second))
	}
	st := rt2.Stats()
	if st.WALSuppressed == 0 {
		t.Error("expected replayed matches to be counted as suppressed")
	}
}

// TestDurableMidStreamRegistration: a query registered mid-stream is
// checkpointed at its exact ingest boundary; recovery re-registers it at
// that boundary, so its post-crash output matches the crash-free run.
func TestDurableMidStreamRegistration(t *testing.T) {
	srcs := durableQuerySrcs()
	late := `PATTERN A; B WHERE A.name = 'S01' AND B.name = 'S01' AND B.price > A.price WITHIN 25 units RETURN A, B`
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}
	events := stockStream(1400, 8, 13)
	base := Config{Shards: 2, BatchSize: 128}

	run := func(dir string, inj *faultinject.Injector, transcript *[]string) (*Runtime, error) {
		cfg := base
		cfg.test.injector = inj
		cfg.Durability = &DurConfig{Dir: dir, CheckpointEvery: 300,
			RecoverEmit: func(id QueryID, src string) func(*core.Match) {
				return func(m *core.Match) {
					*transcript = append(*transcript, fmt.Sprintf("q%03d %s", int(id)-1, canon(m)))
				}
			}}
		rt, info, err := NewDurable(cfg)
		if err != nil {
			t.Fatalf("NewDurable: %v", err)
		}
		reg := func(i int, src string) error {
			q := query.MustParse(src)
			_, rerr := rt.Register(q, ecfg, func(m *core.Match) {
				*transcript = append(*transcript, fmt.Sprintf("q%03d %s", i, canon(m)))
			})
			return rerr
		}
		if info.Queries == 0 {
			for i, src := range srcs {
				if err := reg(i, src); err != nil {
					return rt, err
				}
			}
		}
		for n, ev := range events[info.LastSeq:] {
			seq := info.LastSeq + uint64(n) + 1
			if seq == 700 {
				// Mid-stream registration (only reached by the first run:
				// recovery resumes past it and re-registers from the
				// checkpoint instead).
				if err := reg(len(srcs), late); err != nil {
					return rt, err
				}
			}
			cp := *ev
			if ierr := rt.Ingest(&cp); ierr != nil {
				return rt, ierr
			}
		}
		return rt, nil
	}

	var ref []string
	rt, err := run(t.TempDir(), nil, &ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	inj := faultinject.New().Arm(faultinject.Rule{
		Site: faultinject.SiteWALAppend, Shard: faultinject.AnyShard, Nth: 8, Act: faultinject.ActPanic,
	})
	var got []string
	rt, err = run(dir, inj, &got)
	if err == nil {
		t.Fatal("armed crash never fired")
	}
	rt.crash()
	rt2, err := run(dir, nil, &got)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.Close(); err != nil {
		t.Fatal(err)
	}
	diffTranscripts(t, ref, got)
}

// TestDurableRetentionPrune: with tiny segments and frequent checkpoints,
// retention must remove segments behind the recovery horizon while the
// log still recovers the full recent window.
func TestDurableRetentionPrune(t *testing.T) {
	srcs := []string{`PATTERN A; B WHERE A.name = 'S00' AND B.name = 'S00' AND B.price > A.price WITHIN 10 units RETURN A, B`}
	ecfg := core.Config{Strategy: core.StrategyLeftDeep, BatchSize: 64}
	events := stockStream(4000, 4, 19)
	dir := t.TempDir()
	cfg := Config{Shards: 2, BatchSize: 64}
	cfg.Durability = &DurConfig{Dir: dir, Fsync: wal.FsyncOff, CheckpointEvery: 200, SegmentBytes: 4 << 10}
	rt, _, err := NewDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if _, err := rt.Register(query.MustParse(srcs[0]), ecfg, func(*core.Match) { n++ }); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		cp := *ev
		if err := rt.Ingest(&cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.WAL.PrunedSegments == 0 {
		t.Fatalf("no segments pruned (segments=%d); retention is inert", st.WAL.Segments)
	}
	// The pruned log must still scan cleanly and hold the durable tail.
	res, err := wal.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.LastSeq != uint64(len(events)) {
		t.Errorf("pruned log lost the tail: last_seq=%d want %d", res.LastSeq, len(events))
	}
	if res.Checkpoint == nil {
		t.Error("pruned log lost its checkpoint")
	}
}

// TestDurableFailStopSticky: the first WAL error sheds the failing flush
// and every later Ingest keeps failing with the sticky writer error.
func TestDurableFailStopSticky(t *testing.T) {
	inj := faultinject.New().Arm(faultinject.Rule{
		Site: faultinject.SiteWALAppend, Shard: faultinject.AnyShard, Nth: 1, Act: faultinject.ActPanic,
	})
	cfg := Config{Shards: 1, BatchSize: 4, test: testHooks{injector: inj}}
	cfg.Durability = &DurConfig{Dir: t.TempDir()}
	rt, _, err := NewDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.crash()
	events := stockStream(64, 4, 23)
	var failed int
	for _, ev := range events {
		cp := *ev
		if err := rt.Ingest(&cp); err != nil {
			failed++
			var we *wal.Error
			if !errors.As(err, &we) {
				t.Fatalf("expected *wal.Error, got %v", err)
			}
		}
	}
	if failed < 2 {
		t.Fatalf("sticky fail-stop error surfaced only %d times", failed)
	}
	st := rt.Stats()
	if !st.WALEnabled {
		t.Error("WALEnabled cleared by a WAL failure; the sticky error is the signal")
	}
	if st.WALErrors == 0 {
		t.Error("WAL errors not counted")
	}
	if st.EventsShed == 0 {
		t.Error("failed appends shed nothing")
	}
	faults := rt.WALErrors()
	if len(faults) == 0 || !faults[0].Simulated || faults[0].Op != "append" {
		t.Errorf("unexpected WAL fault records: %+v", faults)
	}
}

package main

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/runtime"
)

// fidelityEvents is the stream prefix on which the replica must give the
// runtime's matches.
const fidelityEvents = 20_000

// runtimeKeys runs the first n events of w through a real runtime with the
// given shard count and returns every match's key, sorted. Two queries
// matching the same events yield two equal keys, here and in replicaKeys.
func runtimeKeys(t *testing.T, w *workload, shards, n int) []string {
	t.Helper()
	qs, err := parseAll(w.queries)
	if err != nil {
		t.Fatal(err)
	}
	rt := runtime.New(runtime.Config{Shards: shards})
	var keys []string
	for _, q := range qs {
		// Callbacks all run on the merger goroutine; Close orders them
		// before the read below.
		if _, err := rt.Register(q, w.core, func(m *core.Match) {
			keys = append(keys, matchKey(m))
		}); err != nil {
			t.Fatal(err)
		}
	}
	g := newGenerator(w.stream, 5)
	for i := 0; i < n; i++ {
		if err := rt.Ingest(g.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	return keys
}

// replicaKeys does the same through the layer replica.
func replicaKeys(t *testing.T, w *workload, shards, n int) []string {
	t.Helper()
	qs, err := parseAll(w.queries)
	if err != nil {
		t.Fatal(err)
	}
	walDir := ""
	if w.durable {
		walDir = t.TempDir()
	}
	var keys []string
	r, err := newReplica(qs, w.core, shards, walDir, newTracer(), func(m *core.Match) {
		keys = append(keys, matchKey(m))
	})
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(w.stream, 5)
	for i := 0; i < n; i++ {
		if err := r.Ingest(g.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if int64(len(keys)) != r.matches {
		t.Fatalf("replica counted %d matches and delivered %d", r.matches, len(keys))
	}
	sort.Strings(keys)
	return keys
}

// TestReplicaMatchesRuntime pins the replica to the worker it mirrors: on a
// 20,000-event prefix of every workload it finds the same match multiset as
// runtime.Runtime with one shard and with two. Query 6 binds its classes to
// four different symbols, so it only makes sense unsharded, as its workload
// runs it. The durable workload's runtime side runs without the log, which
// does not change matches; its replica side appends to one.
func TestReplicaMatchesRuntime(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			want := runtimeKeys(t, w, 1, fidelityEvents)
			if len(want) == 0 {
				t.Fatal("the runtime found no match on the prefix")
			}
			shardCounts := []int{1, 2}
			if w.shards == 1 {
				shardCounts = []int{1}
			} else if got := runtimeKeys(t, w, 2, fidelityEvents); !slices.Equal(got, want) {
				t.Errorf("runtime with 2 shards: %d matches, with 1 shard: %d", len(got), len(want))
			}
			for _, shards := range shardCounts {
				if got := replicaKeys(t, w, shards, fidelityEvents); !slices.Equal(got, want) {
					t.Errorf("replica with %d shard(s): %d matches, runtime: %d", shards, len(got), len(want))
				}
			}
		})
	}
}

func TestReplicaRefusesDuplicateQueries(t *testing.T) {
	qs, err := parseAll([]string{query6, query6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newReplica(qs, productionCore, 1, "", newTracer(), nil); err == nil {
		t.Fatal("a query set with two equal queries was accepted, but dedupe is not modelled")
	}
}

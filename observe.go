package zstream

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/explain"
	"repro/internal/runtime"
)

// ExplainDoc is the zstream-explain/v1 document: a stable, versioned JSON
// description of one query's physical plan, cost-model view, sharing
// decisions, router subscription and live operator counters. See
// docs/OBSERVABILITY.md for the field-by-field schema reference.
type ExplainDoc = explain.Doc

// ExplainVersion identifies the EXPLAIN document schema; ExplainDoc.Version
// always carries it.
const ExplainVersion = explain.Version

// Metrics is a consistent runtime-wide observability snapshot: aggregate
// Stats plus per-query, per-producer and router counters.
type Metrics = runtime.Metrics

// QueryMetrics is one live query's row in a Metrics snapshot.
type QueryMetrics = runtime.QueryMetrics

// ProducerMetrics is one shared-subplan producer's row in a Metrics
// snapshot.
type ProducerMetrics = runtime.ProducerMetrics

// RouterMetrics sums the per-shard router counters in a Metrics snapshot.
type RouterMetrics = runtime.RouterMetrics

// Explain assembles the zstream-explain/v1 document for a live query. The
// snapshot rides the worker op queues, so its counters cover exactly the
// events whose Ingest returned before the call; under adaptation, shards
// running different plans appear as separate plan variants. Like Metrics,
// it waits for the merger and must not be called from an OnMatch callback.
func (r *Runtime) Explain(id QueryID) (*ExplainDoc, error) { return r.rt.Explain(id) }

// Metrics captures an observability snapshot; safe to call while ingesting.
// It returns once every match releasable at the snapshot has been
// delivered, so MatchesDelivered is exact; calling it from an OnMatch
// callback deadlocks.
func (r *Runtime) Metrics() Metrics { return r.rt.Metrics() }

// WriteMetrics renders a Metrics snapshot in Prometheus text exposition
// format to w.
func (r *Runtime) WriteMetrics(w io.Writer) error { return r.rt.WriteMetrics(w) }

// LiveQueries returns the ids of all registered queries, sorted.
func (r *Runtime) LiveQueries() []QueryID { return r.rt.LiveQueries() }

// ExplainDoc assembles the zstream-explain/v1 document for a standalone
// engine. Like Process, it must not race the goroutine driving the engine:
// call it between Process calls (the operator counters are owned by that
// goroutine).
func (e *Engine) ExplainDoc() *ExplainDoc {
	info := e.eng.BuildExplain()
	return &ExplainDoc{
		Version:  explain.Version,
		Query:    explain.QuerySection(e.eng.Query()),
		Strategy: info.Strategy,
		Cost:     info.Cost,
		Plans: []explain.PlanVariant{{
			Fingerprint: info.Fingerprint,
			Shards:      []int{0},
			Switches:    info.Switches,
			LastSwitch:  info.LastSwitch,
			Tree:        info.Tree,
		}},
		Text: explain.Render(info.Tree),
	}
}

// NewObservabilityHandler returns an http.Handler exposing the runtime's
// ops surface:
//
//	GET /metrics       Prometheus text exposition (0.0.4)
//	GET /explain       JSON array of live query ids
//	GET /explain/{id}  zstream-explain/v1 document for one query
//
// The handler holds no state of its own; every request takes a fresh
// snapshot through the worker op queues, so concurrent scrapes are safe.
func NewObservabilityHandler(r *Runtime) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteMetrics(w)
	})
	mux.HandleFunc("/explain", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(r.LiveQueries())
	})
	mux.HandleFunc("/explain/", func(w http.ResponseWriter, req *http.Request) {
		idStr := strings.TrimPrefix(req.URL.Path, "/explain/")
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			http.Error(w, "bad query id", http.StatusBadRequest)
			return
		}
		doc, err := r.Explain(QueryID(id))
		switch {
		case errors.Is(err, ErrUnknownQuery):
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		b, err := doc.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
		_, _ = w.Write([]byte("\n"))
	})
	return mux
}

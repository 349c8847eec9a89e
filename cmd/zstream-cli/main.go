// Command zstream-cli runs CEP queries over a CSV event file and prints
// the matches.
//
// The CSV's first row names the attributes; one column must be "ts" (the
// event timestamp in ticks). Remaining columns become event attributes:
// values parsing as numbers are numeric, everything else is a string.
//
// Single-query mode (the default) runs one engine on one goroutine:
//
//	zstream-cli -query "PATTERN A;B WHERE A.name='x' ... WITHIN 100" events.csv
//	zstream-cli -query-file q.txt -explain events.csv
//	cat events.csv | zstream-cli -query "..." -
//
// Serve mode (-serve) hosts any number of queries on a concurrent sharded
// runtime: -query/-query-file repeat, the stream is partitioned by
// -partition-by across -shards workers, and matches from all queries are
// printed in one merged end-time-ordered stream tagged q0, q1, ...:
//
//	zstream-cli -serve -shards 4 -partition-by name \
//	    -query "PATTERN ..." -query-file more.txt events.csv
//
// -explain compiles the queries, prints one zstream-explain/v1 JSON
// document per query to stdout, and exits without reading events (the
// event-file argument is optional and ignored):
//
//	zstream-cli -query "PATTERN ..." -explain
//
// -listen (with -serve) exposes the live ops surface over HTTP while the
// stream runs: GET /metrics (Prometheus text), GET /explain (query ids),
// GET /explain/{id} (the EXPLAIN document with live counters):
//
//	zstream-cli -serve -listen :9090 -query "PATTERN ..." events.csv
//
// -wal-dir (with -serve) arms the durability plane: every event is
// appended to a write-ahead log before any engine sees it, with the fsync
// policy picked by -fsync and checkpoints every -checkpoint-interval
// events. After a crash, restart with -recover over the same directory:
// the runtime replays the log tail, suppresses matches already printed
// before the crash, skips the input rows it already processed, and the
// combined output of both runs equals one uninterrupted run:
//
//	zstream-cli -serve -wal-dir ./wal -query "PATTERN ..." events.csv
//	zstream-cli -serve -wal-dir ./wal -recover -query "PATTERN ..." events.csv
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	zstream "repro"
)

// stringList collects repeated flag values.
type stringList []string

// String implements fmt.Stringer.
func (s *stringList) String() string { return strings.Join(*s, "; ") }

// Set implements flag.Value.
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var queryTexts, queryFiles stringList
	flag.Var(&queryTexts, "query", "query text (repeatable with -serve)")
	flag.Var(&queryFiles, "query-file", "file containing a query (repeatable with -serve)")
	var (
		explain  = flag.Bool("explain", false, "print zstream-explain/v1 JSON per query and exit")
		adaptive = flag.Bool("adaptive", false, "enable plan adaptation")
		disorder = flag.Int64("max-disorder", 0, "tolerated timestamp disorder in ticks")
		quiet    = flag.Bool("quiet", false, "suppress per-match output; print only the summary")
		serve    = flag.Bool("serve", false, "run all queries on the concurrent sharded runtime")
		shards   = flag.Int("shards", 0, "worker shards in serve mode (default GOMAXPROCS)")
		partBy   = flag.String("partition-by", "name", "partition-key attribute in serve mode")
		listen   = flag.String("listen", "", "with -serve: serve GET /metrics and /explain/{id} on this address")
		drainTO  = flag.Duration("drain-timeout", 5*time.Second, "with -serve: bound on the final drain after SIGINT/SIGTERM")
		walDir   = flag.String("wal-dir", "", "with -serve: write-ahead-log directory (arms the durability plane)")
		fsyncPol = flag.String("fsync", "batch", "with -wal-dir: fsync policy, one of batch|interval|off")
		ckptIv   = flag.Int("checkpoint-interval", 0, "with -wal-dir: checkpoint roughly every N logged events (default 4096)")
		recover_ = flag.Bool("recover", false, "with -wal-dir: resume from an existing log instead of refusing it")
	)
	flag.Parse()

	for _, f := range queryFiles {
		b, err := os.ReadFile(f)
		fail(err)
		queryTexts = append(queryTexts, string(b))
	}
	if len(queryTexts) == 0 {
		fmt.Fprintln(os.Stderr, "zstream-cli: -query or -query-file required")
		os.Exit(2)
	}
	if !*serve && len(queryTexts) > 1 {
		fmt.Fprintln(os.Stderr, "zstream-cli: multiple queries require -serve")
		os.Exit(2)
	}
	if *serve && *disorder > 0 {
		fmt.Fprintln(os.Stderr, "zstream-cli: -max-disorder is not supported with -serve (runtime ingest requires in-order timestamps)")
		os.Exit(2)
	}
	if *walDir != "" && !*serve {
		fmt.Fprintln(os.Stderr, "zstream-cli: -wal-dir requires -serve")
		os.Exit(2)
	}
	if *recover_ && *walDir == "" {
		fmt.Fprintln(os.Stderr, "zstream-cli: -recover requires -wal-dir")
		os.Exit(2)
	}
	if _, err := parseFsync(*fsyncPol); err != nil {
		fmt.Fprintln(os.Stderr, "zstream-cli:", err)
		os.Exit(2)
	}
	if *explain {
		runExplain(queryTexts, *serve, *shards, *partBy, *adaptive, *disorder)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "zstream-cli: exactly one event file (or '-') required")
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		fail(err)
		defer f.Close()
		in = f
	}

	if *serve {
		runServe(queryTexts, in, *shards, *partBy, *quiet, *adaptive, *listen, *drainTO,
			durFlags{dir: *walDir, fsync: *fsyncPol, ckptIv: *ckptIv, recover: *recover_})
		return
	}
	runSingle(queryTexts[0], in, *adaptive, *disorder, *quiet)
}

// runExplain compiles every query, prints one zstream-explain/v1 JSON
// document per query to stdout, and exits. In serve mode the queries are
// registered on a (never-ingesting) runtime first, so the documents show
// the runtime's sharing and router decisions; otherwise a standalone
// engine's document is printed.
func runExplain(texts []string, serve bool, shards int, partBy string, adaptive bool, disorder int64) {
	if !serve {
		q, err := zstream.Compile(texts[0])
		fail(err)
		var opts []zstream.Option
		if adaptive {
			opts = append(opts, zstream.WithAdaptation())
		}
		if disorder > 0 {
			opts = append(opts, zstream.WithMaxDisorder(disorder))
		}
		eng, err := zstream.NewEngine(q, opts...)
		fail(err)
		b, err := eng.ExplainDoc().JSON()
		fail(err)
		fmt.Println(string(b))
		return
	}
	var ropts []zstream.RuntimeOption
	if shards > 0 {
		ropts = append(ropts, zstream.WithShards(shards))
	}
	ropts = append(ropts, zstream.WithPartitionBy(partBy))
	rt := zstream.NewRuntime(ropts...)
	var ids []zstream.QueryID
	for _, text := range texts {
		q, err := zstream.Compile(text)
		fail(err)
		var qopts []zstream.Option
		if adaptive {
			qopts = append(qopts, zstream.WithAdaptation())
		}
		id, err := rt.Register(q, qopts...)
		fail(err)
		ids = append(ids, id)
	}
	for _, id := range ids {
		doc, err := rt.Explain(id)
		fail(err)
		b, err := doc.JSON()
		fail(err)
		fmt.Println(string(b))
	}
	fail(rt.Close())
}

// runSingle is the original one-query, one-goroutine mode.
func runSingle(text string, in io.Reader, adaptive bool, disorder int64, quiet bool) {
	q, err := zstream.Compile(text)
	fail(err)

	matches := 0
	opts := []zstream.Option{zstream.OnMatch(func(m *zstream.Match) {
		matches++
		if quiet {
			return
		}
		fmt.Print(renderMatch(m))
	})}
	if adaptive {
		opts = append(opts, zstream.WithAdaptation())
	}
	if disorder > 0 {
		opts = append(opts, zstream.WithMaxDisorder(disorder))
	}
	eng, err := zstream.NewEngine(q, opts...)
	fail(err)

	n, err := feedCSV(eng, in)
	fail(err)
	eng.Flush()
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "events=%d matches=%d rounds=%d peak-mem=%.2fMB\n",
		n, matches, st.Rounds, float64(st.PeakMemBytes)/(1<<20))
}

// durFlags bundles the -wal-dir/-fsync/-checkpoint-interval/-recover
// durability flags for serve mode.
type durFlags struct {
	dir     string
	fsync   string
	ckptIv  int
	recover bool
}

// parseFsync maps the -fsync flag value to a policy.
func parseFsync(s string) (zstream.FsyncPolicy, error) {
	switch s {
	case "batch":
		return zstream.FsyncBatch, nil
	case "interval":
		return zstream.FsyncInterval, nil
	case "off":
		return zstream.FsyncOff, nil
	}
	return 0, fmt.Errorf("bad -fsync %q: want batch, interval or off", s)
}

// runServe hosts every query on one sharded runtime and prints the merged
// end-time-ordered match stream, each line tagged with its query index.
// SIGINT/SIGTERM stop the feed and drain gracefully: buffered events are
// flushed and pending matches delivered, bounded by -drain-timeout, and
// the drain outcome is reported on stderr before a clean exit. With
// -wal-dir the runtime is durable; with -recover it resumes an existing
// log, skipping input rows the log shows were already processed.
func runServe(texts []string, in io.Reader, shards int, partBy string, quiet, adaptive bool, listen string, drainTO time.Duration, df durFlags) {
	var opts []zstream.RuntimeOption
	if shards > 0 {
		opts = append(opts, zstream.WithShards(shards))
	}
	opts = append(opts, zstream.WithPartitionBy(partBy))

	perQuery := make([]int, len(texts))
	emit := func(i int) func(*zstream.Match) {
		return func(m *zstream.Match) {
			perQuery[i]++
			if quiet {
				return
			}
			fmt.Printf("q%d %s", i, renderMatch(m))
		}
	}
	registerAll := func(rt *zstream.Runtime) {
		for i, text := range texts {
			q, err := zstream.Compile(text)
			fail(err)
			qopts := []zstream.Option{zstream.OnMatch(emit(i))}
			if adaptive {
				qopts = append(qopts, zstream.WithAdaptation())
			}
			_, err = rt.Register(q, qopts...)
			fail(err)
		}
	}

	var rt *zstream.Runtime
	var skipRows uint64
	if df.dir != "" {
		pol, err := parseFsync(df.fsync)
		fail(err)
		dopts := []zstream.DurabilityOption{
			zstream.WithFsync(pol),
			// Recovered queries print under their original q<i> tag: ids
			// are assigned 1..n in registration order, matching the -query
			// flag order of the pre-crash invocation.
			zstream.WithRecoverHandler(func(id zstream.QueryID, src string) func(*zstream.Match) {
				i := int(id) - 1
				for i >= len(perQuery) {
					perQuery = append(perQuery, 0)
				}
				return emit(i)
			}),
		}
		if df.ckptIv > 0 {
			dopts = append(dopts, zstream.WithCheckpointEvery(df.ckptIv))
		}
		opts = append(opts, zstream.WithDurability(df.dir, dopts...))
		var info *zstream.RecoverInfo
		rt, info, err = zstream.NewDurableRuntime(opts...)
		fail(err)
		if info.Events > 0 || info.Queries > 0 {
			if !df.recover {
				fail(fmt.Errorf("wal dir %q holds an existing log (%s); pass -recover to resume", df.dir, info))
			}
			fmt.Fprintln(os.Stderr, info)
			skipRows = info.LastSeq
		}
		if info.Queries == 0 {
			registerAll(rt)
		}
	} else {
		rt = zstream.NewRuntime(opts...)
		registerAll(rt)
	}

	if listen != "" {
		ln, err := net.Listen("tcp", listen)
		fail(err)
		fmt.Fprintf(os.Stderr, "observability: http://%s/metrics http://%s/explain/{id}\n", ln.Addr(), ln.Addr())
		go func() { _ = http.Serve(ln, zstream.NewObservabilityHandler(rt)) }()
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var row uint64
	n, err := feedCSVFunc(in, func(ev *zstream.Event) error {
		if row++; row <= skipRows {
			// Already durable and replayed; feeding it again would
			// double-process.
			return nil
		}
		return rt.IngestContext(ctx, ev)
	})
	interrupted := ctx.Err() != nil
	if err != nil && !interrupted {
		fail(err)
	}
	if interrupted {
		// A second signal during the drain kills the process normally.
		stopSignals()
		dctx, cancel := context.WithTimeout(context.Background(), drainTO)
		rep, derr := rt.CloseContext(dctx)
		cancel()
		if derr != nil && !errors.Is(derr, context.DeadlineExceeded) {
			fail(derr)
		}
		fmt.Fprintf(os.Stderr, "drain: interrupted complete=%v shed-events=%d timeout=%s\n",
			rep.Complete, rep.EventsShed, drainTO)
	} else {
		fail(rt.Close())
	}

	st := rt.Stats()
	var counts []string
	for i, c := range perQuery {
		counts = append(counts, fmt.Sprintf("q%d=%d", i, c))
	}
	wal := ""
	if st.WALEnabled {
		wal = fmt.Sprintf(" wal-events=%d wal-fsyncs=%d wal-errors=%d",
			st.WAL.AppendedEvents, st.WAL.Fsyncs, st.WALErrors)
	}
	fmt.Fprintf(os.Stderr, "events=%d shards=%d queries=%d matches=%d (%s) shed=%d rounds=%d peak-mem=%.2fMB%s\n",
		n, st.Shards, len(perQuery), st.MatchesDelivered, strings.Join(counts, " "),
		st.EventsShed, st.Engine.Rounds, float64(st.Engine.PeakMemBytes)/(1<<20), wal)
}

// feedCSV parses the CSV stream into events and feeds them to eng.
func feedCSV(eng *zstream.Engine, in io.Reader) (int, error) {
	return feedCSVFunc(in, func(ev *zstream.Event) error {
		eng.Process(ev)
		return nil
	})
}

// feedCSVFunc parses the CSV stream and hands each event to process.
func feedCSVFunc(in io.Reader, process func(*zstream.Event) error) (int, error) {
	r := csv.NewReader(in)
	r.TrimLeadingSpace = true
	header, err := r.Read()
	if err != nil {
		return 0, fmt.Errorf("read header: %w", err)
	}
	tsCol := -1
	var attrs []string
	var cols []int
	for i, h := range header {
		if strings.EqualFold(h, "ts") {
			tsCol = i
			continue
		}
		attrs = append(attrs, h)
		cols = append(cols, i)
	}
	if tsCol < 0 {
		return 0, fmt.Errorf("no 'ts' column in header %v", header)
	}
	schema, err := zstream.NewSchema("csv", attrs...)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		row, err := r.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		ts, err := strconv.ParseInt(strings.TrimSpace(row[tsCol]), 10, 64)
		if err != nil {
			return n, fmt.Errorf("row %d: bad ts %q", n+2, row[tsCol])
		}
		vals := make([]zstream.Value, len(cols))
		for k, ci := range cols {
			cell := strings.TrimSpace(row[ci])
			if f, err := strconv.ParseFloat(cell, 64); err == nil {
				vals[k] = zstream.Float(f)
			} else {
				vals[k] = zstream.Str(cell)
			}
		}
		ev, err := zstream.NewEvent(schema, ts, vals...)
		if err != nil {
			return n, err
		}
		if err := process(ev); err != nil {
			return n, err
		}
		n++
	}
}

func renderMatch(m *zstream.Match) string {
	var b strings.Builder
	fmt.Fprintf(&b, "match [%d..%d]", m.Start, m.End)
	for _, f := range m.Fields {
		fmt.Fprintf(&b, " %s=", f.Name)
		if len(f.Events) > 0 {
			for i, e := range f.Events {
				if i > 0 {
					b.WriteByte('+')
				}
				fmt.Fprintf(&b, "@%d", e.Ts)
			}
		} else {
			b.WriteString(f.Value.String())
		}
	}
	b.WriteByte('\n')
	return b.String()
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "zstream-cli:", err)
		os.Exit(1)
	}
}

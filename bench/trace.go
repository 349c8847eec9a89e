package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (nothing inside the program is instrumented). parent is the index of
// the span that caused it, or -1; spans of one ingest batch share its index
// as trace id.
type span struct {
	name       string
	start, end time.Duration
	parent     int32
	trace      int64
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	// marks are instant events (OnMatch deliveries in the traced
	// end-to-end leg), kept as bare times because there can be millions.
	marks []time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int32, trace int64) int32 {
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: parent, trace: trace})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].end = t.now() }

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval covered by its child spans
// (overlapping children are not subtracted twice).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.name] += s.end - s.start - covered(spans, children[int32(i)], s.start, s.end)
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// [lo, hi].
func covered(spans []span, kids []int32, lo, hi time.Duration) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].start < spans[kids[j]].start })
	var sum time.Duration
	at := lo
	for _, k := range kids {
		s, e := max(spans[k].start, at), min(spans[k].end, hi)
		if e > s {
			sum += e - s
			at = e
		}
	}
	return sum
}

// writeChrome writes the spans and marks as Chrome trace-event JSON
// (chrome://tracing, Perfetto): one complete event per span with the batch
// index as thread id, one instant event per mark.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	sep := ""
	for _, s := range t.spans {
		name, _ := json.Marshal(s.name)
		fmt.Fprintf(w, `%s{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f}`,
			sep, name, s.trace, us(s.start), us(s.end-s.start))
		sep = ",\n"
	}
	for _, m := range t.marks {
		fmt.Fprintf(w, `%s{"name":"OnMatch","ph":"i","s":"p","pid":1,"tid":0,"ts":%.3f}`, sep, us(m))
		sep = ",\n"
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusCoveredChildInterval(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{name: "batch", start: 0, end: 100 * us, parent: -1},
		{name: "route", start: 10 * us, end: 30 * us, parent: 0},
		// overlaps route: the shared 5 us are not subtracted twice
		{name: "feed", start: 25 * us, end: 60 * us, parent: 0},
		// sticks out of the parent: only the part inside counts
		{name: "sync", start: 90 * us, end: 120 * us, parent: 0},
		{name: "probe", start: 12 * us, end: 16 * us, parent: 1},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"batch": 40 * us, // 100 - [10,60] - [90,100]
		"route": 16 * us, // 20 - 4
		"feed":  35 * us,
		"sync":  30 * us,
		"probe": 4 * us,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, self[name], w)
		}
	}
}

func TestSelfTimesSumSpansOfOneName(t *testing.T) {
	spans := []span{
		{name: "batch", start: 0, end: 10, parent: -1, trace: 0},
		{name: "route", start: 2, end: 5, parent: 0, trace: 0},
		{name: "batch", start: 10, end: 30, parent: -1, trace: 1},
		{name: "route", start: 11, end: 21, parent: 2, trace: 1},
	}
	self := selfTimes(spans)
	if self["route"] != 13 || self["batch"] != 17 {
		t.Fatalf("summed self times %v, want route 13 and batch 17", self)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	tr := newTracer()
	b := tr.begin("batch", -1, 7)
	tr.end(tr.begin(`odd "name"`, b, 7))
	tr.end(b)
	tr.marks = append(tr.marks, tr.now())
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d trace events, want 2 spans and 1 mark", len(doc.TraceEvents))
	}
}

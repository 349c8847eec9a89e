package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

// TestSmoke runs every workload at 1/50 size, both halves, so that tier-1
// catches a benchmark that no longer builds or runs, and checks the shape
// of what it prints.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole benchmark at 1/50 size")
	}
	var out bytes.Buffer
	o := options{names: "all", seed: 1, mode: traceBoth, smoke: true, scratchParent: t.TempDir()}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	var seen []string
	for sc.Scan() {
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("standard output holds a line that is not a result: %v", err)
		}
		seen = append(seen, res.Workload)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", res.Workload, res.Correct, res.Attempted, res.Failed)
		}
		for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
			for _, d := range defs {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("%s: metric %s missing or in unit %q, want %q", res.Workload, d.name, v.Unit, d.unit)
				}
			}
		}
		if want := len(endToEndMetrics) + len(perLayerMetrics); len(res.Metrics) != want {
			t.Errorf("%s: %d metrics printed, catalogue has %d", res.Workload, len(res.Metrics), want)
		}
		for _, d := range endToEndMetrics {
			if res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want positive", res.Workload, d.name, res.Metrics[d.name].Value)
			}
		}
		sub := res.Metrics["subplan.assemble_ns_per_event"].Value
		if shared := res.Workload == "shared-prefix"; (sub > 0) != shared {
			t.Errorf("%s: subplan.assemble_ns_per_event = %v; shared producers belong to shared-prefix only", res.Workload, sub)
		}
	}
	if len(seen) != len(workloads()) {
		t.Fatalf("results for %v, want all %d workloads", seen, len(workloads()))
	}
}

// TestDriverObjectHasExactlyFourKeys pins the single-workload output to the
// driver's contract.
func TestDriverObjectHasExactlyFourKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one workload at 1/50 size")
	}
	var out bytes.Buffer
	o := options{names: "shared-prefix", seed: 2, mode: traceOff, smoke: true, scratchParent: t.TempDir()}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &obj); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := obj[k]; !ok {
			t.Errorf("key %q missing", k)
		}
	}
	if len(obj) != 4 {
		t.Errorf("%d keys, want exactly 4", len(obj))
	}
	var ms map[string]metricValue
	if err := json.Unmarshal(obj["metrics"], &ms); err != nil || len(ms) != len(endToEndMetrics) {
		t.Errorf("-trace 0 printed %d metrics (%v), want the %d end-to-end ones", len(ms), err, len(endToEndMetrics))
	}
}

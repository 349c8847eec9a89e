package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json, which the driver
// reads, equal to the catalogue the program prints from.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the program is calibrated for %d", doc.RunSeconds, runSeconds)
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d exist", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d declared as %q (%q), is %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, declared []jsonMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, catalogue has %d", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			j := declared[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s %d declared as %+v, catalogue has %+v", kind, i, j, d)
			}
			if bounded != (j.Bound != nil) || (bounded && *j.Bound != d.bound) {
				t.Errorf("%s %s: declared bound does not match the catalogue's %v", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics, true)
	check("per_layer", doc.PerLayer, perLayerMetrics, false)
}

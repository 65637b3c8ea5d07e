package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricEntry `json:"end_to_end"`
	PerLayer []metricEntry `json:"per_layer"`
}

type metricEntry struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func entries(ms []metric, bounds bool) []metricEntry {
	var out []metricEntry
	for _, m := range ms {
		e := metricEntry{Name: m.Name, Unit: m.Unit, Better: m.Better}
		if bounds {
			b := m.Bound
			e.Bound = &b
		}
		out = append(out, e)
	}
	return out
}

// TestBenchmarkJSONMatchesMetricTable keeps BENCHMARK.json and the
// metric table in metrics.go in step.
func TestBenchmarkJSONMatchesMetricTable(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.EndToEnd, entries(endToEndMetrics, true)) {
		t.Errorf("end_to_end differs from endToEndMetrics")
	}
	if !reflect.DeepEqual(f.PerLayer, entries(perLayerMetrics, false)) {
		t.Errorf("per_layer differs from perLayerMetrics")
	}
	var names, want []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}

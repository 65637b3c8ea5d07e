package main

import (
	"math"
	"testing"
)

// TestEndToEndPerClass checks that op_ms.p50 and op_ms.tail are taken
// within each op class: one slow op of a class moves only that class's
// median, not a median pooled across classes that falls between two of
// them.
func TestEndToEndPerClass(t *testing.T) {
	s := opStats{clients: 1}
	add := func(class string, lats ...float64) {
		for _, l := range lats {
			s.latencyMs = append(s.latencyMs, l)
			s.classes = append(s.classes, class)
			s.mttfGains = append(s.mttfGains, 2)
		}
		s.attempted += len(lats)
	}
	add("fast", 10, 10, 10, 40)
	add("slow", 1000, 1000, 1000, 1000)
	out := map[string]float64{}
	s.endToEnd(out, 1.5)
	if got, want := out["op_ms.p50"], 100.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("op_ms.p50 = %v, want the geometric mean of the class medians %v", got, want)
	}
	if got, want := out["op_ms.tail"], 1000.0; got != want {
		t.Errorf("op_ms.tail = %v, want the highest class tail %v", got, want)
	}
	if got, want := out["ops_per_s"], 1000/mean(s.latencyMs); got != want {
		t.Errorf("ops_per_s = %v, want %v", got, want)
	}

	one := opStats{clients: 2, latencyMs: []float64{3, 1, 2}, classes: []string{"", "", ""}}
	one.endToEnd(out, 0)
	if out["op_ms.p50"] != 2 || out["op_ms.tail"] != 2 {
		t.Errorf("one class: p50 %v tail %v, want its median 2 for both", out["op_ms.p50"], out["op_ms.tail"])
	}
}

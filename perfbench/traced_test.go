package main

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// split names the layers that split one traced wall-clock and the
// unattributed remainder they leave.
type split struct {
	layers []string
	rest   string
}

// identities lists, per workload, each traced wall-clock and its split.
var identities = map[string]map[string]split{
	wTable1: {
		"core.freeze.wall_ms": {[]string{"core.freeze.step1_ms", "core.freeze.rotate_ms", "core.freeze.step2_ms", "core.freeze.sta_ms"}, "core.freeze.unattributed_ms"},
		"core.rotate.wall_ms": {[]string{"core.rotate.step1_ms", "core.rotate.rotate_ms", "core.rotate.step2_ms", "core.rotate.sta_ms"}, "core.rotate.unattributed_ms"},
	},
	wResubmit: {
		"serve.rtt_ms": {resubmitLayers, "serve.unattributed_ms"},
	},
	wDelta: {
		"serve.delta_rtt_ms": {[]string{"serve.queue_wait_ms", "serve.solve_ms"}, "serve.delta_unattributed_ms"},
	},
}

func within1pct(sum, wall float64) bool { return math.Abs(sum-wall) <= 0.01*math.Abs(wall) }

// TestTracedLayersAddUp runs every workload traced on small inputs and
// checks that, for each traced op and for the reported means, the layers
// plus the unattributed remainder equal the op's wall-clock within 1%;
// that no op's layers add up to more than its wall-clock (a remainder
// below -1% of it), which fails when a layer is timed outside the op it
// splits; that it measures every per-layer metric metrics.go assigns to
// it; and that the printed line carries exactly the per-layer metrics.
func TestTracedLayersAddUp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real solves")
	}
	cfg := config{seed: 3, duration: 300 * time.Millisecond, traced: true, tmp: t.TempDir(),
		rows: table1Rows[:2], bases: table1Rows[:2]}
	skipped := map[string]bool{}
	for _, row := range table1Rows[2:] {
		skipped["core.remap_ms."+row] = true
		skipped["lp.simplex_iters."+row] = true
	}
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			out, err := w(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.stats.failed != 0 {
				t.Fatalf("failed ops: %v", out.failures)
			}
			for wall, sp := range identities[name] {
				parts := append(append([]string(nil), sp.layers...), sp.rest)
				ops := out.spans[wall]
				if len(ops) == 0 {
					t.Fatalf("no traced op recorded %s", wall)
				}
				for k := range ops {
					sum := 0.0
					for _, p := range parts {
						sum += out.spans[p][k]
					}
					if !within1pct(sum, ops[k]) {
						t.Errorf("op %d: %v sum to %.4f ms, %s is %.4f ms", k, parts, sum, wall, ops[k])
					}
					if rest := out.spans[sp.rest][k]; rest < -0.01*ops[k] {
						t.Errorf("op %d: %v exceed %s (%.4f ms) by %.4f ms", k, sp.layers, wall, ops[k], -rest)
					}
				}
				sum := 0.0
				for _, p := range parts {
					sum += out.layers[p]
				}
				if !within1pct(sum, out.layers[wall]) {
					t.Errorf("reported %v sum to %.4f ms, %s is %.4f ms", parts, sum, wall, out.layers[wall])
				}
			}
			for _, m := range perLayerMetrics {
				if skipped[m.Name] {
					continue // a per-row metric of a row this test does not solve
				}
				if _, ok := out.layers[m.Name]; !ok && (m.Workload == name || m.Workload == "all") {
					t.Errorf("%s declares %s but its traced run did not measure it", name, m.Name)
				}
			}
			line, err := render(out, true)
			if err != nil {
				t.Fatal(err)
			}
			var res jsonResult
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) != len(perLayerMetrics) || !res.Correct {
				t.Errorf("traced line has %d metrics (want %d), correct=%v", len(res.Metrics), len(perLayerMetrics), res.Correct)
			}
		})
	}
}

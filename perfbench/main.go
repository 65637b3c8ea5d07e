// Command perfbench is the repository benchmark. It drives the
// floorplanner only through its public entry points, times the calls
// into each layer from outside, checks every result with its own code,
// and prints one JSON line of metrics as the last line of its output.
//
// Usage (from the root of a checkout):
//
//	bash perfbench/run.sh --workload table1-cold --seed 1 --seconds 28 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// adds a traced pass with the same seed and prints the per-layer metrics.
// README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// setupRepeats is how many times each workload builds its set-up; the
// last build is measured and setup_s is the median of all of them.
const setupRepeats = 3

// config is one run's parameters.
type config struct {
	seed     int64
	duration time.Duration
	traced   bool
	tmp      string // scratch directory for server telemetry
	// rows are table1-cold's Table-I rows and bases the serve workloads'
	// designs; tests shrink them.
	rows  []string
	bases []string
}

// outcome is what a workload hands back: the untraced run's end-to-end
// view, the median set-up time, the per-layer values, the traced ops'
// spans and the ops that failed their check, each with its cause.
type outcome struct {
	stats  opStats
	setupS float64
	layers map[string]float64
	// spans holds the traced run's per-op layer times and counts, kept in
	// memory while it runs: spans[name][k] belongs to traced op k.
	spans    map[string][]float64
	failures []string
}

func newOutcome(clients int, setupS float64, setupLayers map[string]float64) *outcome {
	return &outcome{stats: opStats{clients: clients}, setupS: setupS, layers: setupLayers,
		spans: map[string][]float64{}}
}

// record folds one untraced op of the given op class into the end-to-end
// view.
func (o *outcome) record(class, what string, latMs, gain float64, err error) {
	if o.count(what, err) {
		o.stats.latencyMs = append(o.stats.latencyMs, latMs)
		o.stats.classes = append(o.stats.classes, class)
		o.stats.mttfGains = append(o.stats.mttfGains, gain)
	}
}

// count books one op, untraced or traced, against ok_frac and reports
// whether it passed.
func (o *outcome) count(what string, err error) bool {
	o.stats.attempted++
	if err != nil {
		o.stats.failed++
		o.failures = append(o.failures, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

type workloadFunc func(ctx context.Context, cfg config) (*outcome, error)

var workloads = map[string]workloadFunc{
	wTable1:   runTable1,
	wResubmit: runResubmit,
	wDelta:    runDelta,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table1-cold, serve-resubmit or delta-edits")
	seed := fs.Int64("seed", 1, "workload seed: op order and renumberings")
	seconds := fs.Int("seconds", 28, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 adds a traced pass and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	cfg := config{
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		tmp:      tmp,
		rows:     table1Rows,
		bases:    serveBases,
	}
	out, err := w(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := render(out, cfg.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if cfg.traced {
		if err := writeSpans(out.spans, *name, *seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	for _, f := range out.failures {
		fmt.Fprintf(stderr, "perfbench: failed op: %s\n", f)
	}
	groups := out.stats.byClass()
	fmt.Fprintf(stderr, "perfbench: %s: %d ops timed in %d op classes, tail is p%.2f, peak RSS %s\n",
		*name, len(out.stats.latencyMs), len(groups), 100*tailQuantile(len(groups[0])), peakRSS())
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// values collects every metric the outcome measured, end-to-end and
// per-layer, by name.
func (o *outcome) values() map[string]float64 {
	vals := make(map[string]float64, len(o.layers)+len(endToEndMetrics))
	for k, v := range o.layers {
		vals[k] = v
	}
	o.stats.endToEnd(vals, o.setupS)
	return vals
}

// render builds the result line: the end-to-end metrics of an untraced
// run, or every per-layer metric of a traced one (0 for layers this
// workload does not exercise).
func render(o *outcome, traced bool) ([]byte, error) {
	if o.stats.attempted < 1 {
		return nil, fmt.Errorf("no op attempted")
	}
	list := endToEndMetrics
	if traced {
		list = perLayerMetrics
	}
	vals := o.values()
	res := jsonResult{
		Correct:   o.stats.failed == 0,
		Attempted: o.stats.attempted,
		Failed:    o.stats.failed,
		Metrics:   make(map[string]jsonMetric, len(list)),
	}
	for _, m := range list {
		v := vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
	}
	return json.Marshal(res)
}

// writeSpans writes the traced ops' spans, one JSON object per op, to
// traces/<workload>-seed<n>.jsonl beside the benchmark binary.
func writeSpans(spans map[string][]float64, name string, seed int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir := filepath.Join(filepath.Dir(exe), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n := 0
	for _, xs := range spans {
		n = max(n, len(xs))
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for k := 0; k < n; k++ {
		op := make(map[string]float64, len(spans))
		for name, xs := range spans {
			if k < len(xs) {
				op[name] = xs[k]
			}
		}
		if err := enc.Encode(op); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)), buf.Bytes(), 0o644)
}

// peakRSS reads the process's peak resident set size for the diagnostic
// line ("?" where /proc is unavailable).
func peakRSS() string {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "?"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.Join(strings.Fields(v), " ")
		}
	}
	return "?"
}

// repeatSetup builds a workload's set-up setupRepeats times, releasing
// all but the last build. It returns the last build, the median set-up
// seconds, and the median of each set-up layer in ms.
func repeatSetup[T any](build func() (T, map[string]float64, error), release func(T)) (T, float64, map[string]float64, error) {
	var (
		cur    T
		totals []float64
		layers = map[string][]float64{}
	)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		next, parts, err := build()
		if err != nil {
			if i > 0 {
				release(cur)
			}
			var zero T
			return zero, 0, nil, err
		}
		totals = append(totals, time.Since(start).Seconds())
		for k, v := range parts {
			layers[k] = append(layers[k], v)
		}
		if i > 0 {
			release(cur)
		}
		cur = next
	}
	med := make(map[string]float64, len(layers))
	for k, xs := range layers {
		med[k] = median(xs)
	}
	return cur, median(totals), med, nil
}

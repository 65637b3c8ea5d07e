package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds without truncation.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean returns the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailQuantile picks the tail percentile for n timed ops of one class:
// p75 from 40 ops, below that the highest quantile with ten ops beyond
// it, floored at the median. Only serve-resubmit's ~1 ms ops reach 40 in
// one class, and their upper percentiles move with the shared host: in a
// run slowed by other load on it, p50 rose 20%, p75 25%, p90 55% and p99
// 150% over the runs beside it, and ten runs spread p90 by 27% of its
// median.
func tailQuantile(n int) float64 {
	if n >= 40 {
		return 0.75
	}
	return max(0.5, 1-10/float64(n))
}

// opStats is the end-to-end view of one closed-loop run: per-op latency
// and op class of every op that completed and passed its check, and the
// op counts.
type opStats struct {
	clients   int
	latencyMs []float64
	// classes holds each latency's op class: the Table-I row on
	// table1-cold, whose rows take 15 ms to 2.5 s; the base and op a
	// delta flips on delta-edits, whose warm re-solve time depends on the
	// edit; and "" on serve-resubmit, whose ops are all cache hits.
	classes   []string
	attempted int
	failed    int
	mttfGains []float64
}

// byClass groups the latencies by op class, in order of first
// appearance (one empty group when nothing was timed).
func (s *opStats) byClass() [][]float64 {
	index := map[string]int{}
	var groups [][]float64
	for k, lat := range s.latencyMs {
		i, ok := index[s.classes[k]]
		if !ok {
			i = len(groups)
			index[s.classes[k]] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], lat)
	}
	if len(groups) == 0 {
		groups = append(groups, nil)
	}
	return groups
}

// endToEnd fills the end-to-end metrics every workload reports.
// Percentiles are taken within each op class, so none straddles two
// classes: op_ms.p50 is the geometric mean of the classes' medians and
// op_ms.tail the highest class tail; with one class they are its p50 and
// tail. A p50 pooled over table1-cold's rows falls between the fourth
// and fifth fastest row, where one slow op moves it by 12%. ops_per_s is
// the closed loop's throughput with zero think time, clients divided by
// the mean op latency, so the output checks that run between ops do not
// count against it.
func (s *opStats) endToEnd(out map[string]float64, setupS float64) {
	out["setup_s"] = setupS
	var p50s []float64
	tail := 0.0
	for _, xs := range s.byClass() {
		p50s = append(p50s, median(xs))
		tail = max(tail, quantile(xs, tailQuantile(len(xs))))
	}
	out["op_ms.p50"] = geomean(p50s)
	out["op_ms.tail"] = tail
	out["ok_frac"] = float64(s.attempted-s.failed) / float64(s.attempted)
	if m := mean(s.latencyMs); m > 0 {
		out["ops_per_s"] = float64(s.clients) * 1000 / m
	}
	out["mttf_gain_geomean"] = geomean(s.mttfGains)
}

// attribution splits one traced op's wall-clock into named layers. The
// remainder the layers do not cover is reported under rest, never
// dropped, so the layers plus rest always sum to the wall-clock.
type attribution struct {
	wall   float64
	layers []layerTime
	rest   string
}

type layerTime struct {
	name string
	ms   float64
}

func (a *attribution) add(name string, v float64) { a.layers = append(a.layers, layerTime{name, v}) }

// fold adds the op's wall-clock (under wallName), each layer and the
// unattributed remainder to the per-metric sample lists.
func (a *attribution) fold(samples map[string][]float64, wallName string) {
	rest := a.wall
	for _, l := range a.layers {
		samples[l.name] = append(samples[l.name], l.ms)
		rest -= l.ms
	}
	samples[wallName] = append(samples[wallName], a.wall)
	samples[a.rest] = append(samples[a.rest], rest)
}

// means reduces per-op samples to per-op means. Means, unlike medians,
// keep the layer identity: the mean wall-clock equals the sum of the mean
// layers plus the mean remainder.
func means(samples map[string][]float64, out map[string]float64) {
	for name, xs := range samples {
		out[name] = mean(xs)
	}
}

// passesFor converts a run's duration into a fixed number of passes,
// given the nominal seconds one pass takes, so every run of a workload
// times the same ops and each percentile falls on the same inputs.
func passesFor(d time.Duration, passSeconds float64) int {
	return max(1, int(math.Round(d.Seconds()/passSeconds)))
}

// shuffledPasses calls fn for every index below n in each of the given
// number of passes, each pass shuffled by rng, and returns the orders.
func shuffledPasses(rng *rand.Rand, n, passes int, fn func(pass, i int)) [][]int {
	orders := make([][]int, passes)
	for p := range orders {
		orders[p] = rng.Perm(n)
		for _, i := range orders[p] {
			fn(p+1, i)
		}
	}
	return orders
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/bench"
	"agingfp/internal/core"
	"agingfp/internal/flight"
	"agingfp/internal/nbti"
	"agingfp/internal/place"
	"agingfp/internal/thermal"
	"agingfp/internal/timing"
)

// warmupRows are solved once in table1-cold's set-up: the sub-second
// rows. A process's first solves run up to twice as slow as later ones
// (B4: 638 ms first, about 280 ms once steady).
var warmupRows = map[string]bool{"B1": true, "B4": true, "B10": true, "B13": true, "B19": true}

// table1PassSeconds is the nominal time of one pass over the eight rows
// on a 2-core x86-64 host; --seconds 28 makes four passes.
const table1PassSeconds = 6.5

// t1Row is one Table-I row as the re-mapper consumes it: synthesis and
// placement stand in for the commercial HLS and P&R flow and run in
// set-up.
type t1Row struct {
	name    string
	d       *arch.Design
	m0      arch.Mapping
	opts    core.Options
	baseCPD float64
	beforeH float64 // baseline MTTF hours
}

// specOf resolves a row name; a trailing "s" selects the 0.5-scaled
// instance the experiments run for 16x16 rows.
func specOf(name string) (bench.Spec, error) {
	base := strings.TrimSuffix(name, "s")
	spec, ok := bench.SpecByName(base)
	if !ok {
		return spec, fmt.Errorf("unknown Table-I row %q", name)
	}
	if base != name {
		spec = spec.Scaled(0.5)
	}
	return spec, nil
}

// synthAndPlace builds a row's design and baseline floorplan, adding the
// time of each step to the given totals.
func synthAndPlace(name string, synth, placeT *time.Duration) (*arch.Design, arch.Mapping, bench.Spec, error) {
	spec, err := specOf(name)
	if err != nil {
		return nil, nil, spec, err
	}
	t0 := time.Now()
	d, err := bench.Synthesize(spec)
	if err != nil {
		return nil, nil, spec, err
	}
	t1 := time.Now()
	m0, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		return nil, nil, spec, err
	}
	*synth += t1.Sub(t0)
	*placeT += time.Since(t1)
	return d, m0, spec, nil
}

func setupTable1(ctx context.Context, names []string) ([]*t1Row, map[string]float64, error) {
	var synth, placeT time.Duration
	var rows []*t1Row
	for _, name := range names {
		d, m0, spec, err := synthAndPlace(name, &synth, &placeT)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		before, err := core.Evaluate(d, m0, nbti.DefaultModel(), thermal.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		opts := core.DefaultOptions()
		opts.Seed = spec.Seed // as bench.Run does
		rows = append(rows, &t1Row{name: name, d: d, m0: m0, opts: opts,
			baseCPD: timing.Analyze(d, m0).CPD, beforeH: before.Hours})
		placeT += time.Since(t0)
	}
	var warm []*t1Row
	for _, r := range rows {
		if warmupRows[r.name] {
			warm = append(warm, r)
		}
	}
	if len(warm) == 0 {
		warm = rows[:1]
	}
	t0 := time.Now()
	for _, r := range warm {
		if op := solveTable1(ctx, r); op.err != nil {
			return nil, nil, fmt.Errorf("warm-up %s: %w", r.name, op.err)
		}
	}
	return rows, map[string]float64{
		"setup.synth_ms":      ms(synth),
		"setup.place_ms":      ms(placeT),
		"setup.warmup_ms":     ms(time.Since(t0)),
		"setup.seed_solve_ms": 0,
	}, nil
}

// t1Op is one cold Freeze+Rotate solve of a row, as bench.Run does it
// after placement: RemapBoth, then an MTTF evaluation of both arms.
type t1Op struct {
	row                    *t1Row
	latMs, remapMs, evalMs float64
	fr, ro                 *core.Result
	gain                   float64 // better arm's MTTF over the baseline's
	err                    error
}

func solveTable1(ctx context.Context, r *t1Row) t1Op {
	op := t1Op{row: r}
	t0 := time.Now()
	fr, ro, err := core.RemapBoth(ctx, r.d, r.m0, r.opts)
	t1 := time.Now()
	if err != nil {
		op.err = err
		return op
	}
	model, tcfg := nbti.DefaultModel(), thermal.DefaultConfig()
	aF, errF := core.Evaluate(r.d, fr.Mapping, model, tcfg)
	aR, errR := core.Evaluate(r.d, ro.Mapping, model, tcfg)
	t2 := time.Now()
	op.latMs, op.remapMs, op.evalMs = ms(t2.Sub(t0)), ms(t1.Sub(t0)), ms(t2.Sub(t1))
	op.fr, op.ro = fr, ro
	switch {
	case errF != nil:
		op.err = errF
	case errR != nil:
		op.err = errR
	default:
		op.gain = max(aF.Hours, aR.Hours) / r.beforeH
		op.err = checkArms(r, fr.Mapping, ro.Mapping)
	}
	return op
}

func checkArms(r *t1Row, freeze, rotate arch.Mapping) error {
	if err := checkFloorplan(r.d, freeze, r.baseCPD); err != nil {
		return fmt.Errorf("freeze: %w", err)
	}
	if err := checkFloorplan(r.d, rotate, r.baseCPD); err != nil {
		return fmt.Errorf("rotate: %w", err)
	}
	return nil
}

// runTable1 solves shuffled passes over the rows with one client, as many
// passes as the run's duration holds at the nominal pass time.
// Instrumentation is off (nil Trace and Flight), as in the experiments.
func runTable1(ctx context.Context, cfg config) (*outcome, error) {
	rows, setupS, setupLayers, err := repeatSetup(func() ([]*t1Row, map[string]float64, error) {
		return setupTable1(ctx, cfg.rows)
	}, func([]*t1Row) {})
	if err != nil {
		return nil, err
	}
	out := newOutcome(1, setupS, setupLayers)
	var ops []t1Op
	passes := shuffledPasses(rand.New(rand.NewSource(cfg.seed)), len(rows), passesFor(cfg.duration, table1PassSeconds), func(pass, i int) {
		op := solveTable1(ctx, rows[i])
		out.record(rows[i].name, fmt.Sprintf("pass %d: %s", pass, rows[i].name), op.latMs, op.gain, op.err)
		if op.err == nil {
			ops = append(ops, op)
		}
	})
	if cfg.traced {
		untracedLayers(ops, out.layers)
		if err := traceTable1(ctx, rows, passes[0], out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// untracedLayers derives the per-layer figures of the untraced solves:
// concurrent-arm wall-clock, per-row times and effort, which arm blocked
// each op, and whether repeated solves of a row agreed.
func untracedLayers(ops []t1Op, vals map[string]float64) {
	var remap, eval []float64
	perRow := map[string][]float64{}
	signature := map[string]string{}
	mismatched := map[string]bool{}
	freezeCritical := 0
	for _, op := range ops {
		name := op.row.name
		remap = append(remap, op.remapMs)
		eval = append(eval, op.evalMs)
		perRow[name] = append(perRow[name], op.remapMs)
		if op.fr.Stats.Elapsed > op.ro.Stats.Elapsed {
			freezeCritical++
		}
		sig := fmt.Sprint(op.fr.Stats.SimplexIters, op.ro.Stats.SimplexIters, op.fr.Mapping, op.ro.Mapping)
		if prev, ok := signature[name]; !ok {
			signature[name] = sig
			vals["lp.simplex_iters."+name] = float64(op.fr.Stats.SimplexIters + op.ro.Stats.SimplexIters)
		} else if prev != sig {
			mismatched[name] = true
		}
	}
	vals["core.remap_both_ms"] = mean(remap)
	vals["core.evaluate_ms"] = mean(eval)
	for name, xs := range perRow {
		vals["core.remap_ms."+name] = median(xs)
	}
	if len(ops) > 0 {
		vals["core.freeze_critical_frac"] = float64(freezeCritical) / float64(len(ops))
	}
	vals["core.repeat_mismatch"] = float64(len(mismatched))
}

var arms = []struct {
	name string
	mode core.Mode
}{{"freeze", core.Freeze}, {"rotate", core.Rotate}}

// traceTable1 makes one traced pass in the seed's first order. Each arm
// runs alone through core.Remap with its own kernel-profiling flight
// recorder, so an arm's self time is its own; the traced op's latency is
// the slower arm plus the evaluation. Each arm also runs alone untraced,
// before the traced run on every other row and after it on the rest (a
// repeated solve runs faster), and trace_overhead_frac compares the two
// sequential ops, so the untraced ops' concurrent arms do not enter it.
func traceTable1(ctx context.Context, rows []*t1Row, order []int, out *outcome) error {
	var traced, plain []float64
	var binvMax float64
	for j, i := range order {
		r := rows[i]
		maps := make([]arch.Mapping, len(arms))
		slowest, slowestPlain := 0.0, 0.0
		for a, arm := range arms {
			opts := r.opts
			opts.Mode = arm.mode
			untraced := func() error {
				t0 := time.Now()
				if _, err := core.Remap(ctx, r.d, r.m0, opts); err != nil {
					return fmt.Errorf("untraced %s %s: %w", r.name, arm.name, err)
				}
				slowestPlain = max(slowestPlain, ms(time.Since(t0)))
				return nil
			}
			if j%2 == 0 {
				if err := untraced(); err != nil {
					return err
				}
			}
			rec := flight.NewRecorder(0)
			rec.EnableKernel(0)
			traceOpts := opts
			traceOpts.Flight = rec
			t0 := time.Now()
			res, err := core.Remap(ctx, r.d, r.m0, traceOpts)
			wall := ms(time.Since(t0))
			if err != nil {
				return fmt.Errorf("traced %s %s: %w", r.name, arm.name, err)
			}
			if j%2 == 1 {
				if err := untraced(); err != nil {
					return err
				}
			}
			maps[a] = res.Mapping
			slowest = max(slowest, wall)
			st := res.Stats
			att := attribution{wall: wall, rest: "core." + arm.name + ".unattributed_ms"}
			att.add("core."+arm.name+".step1_ms", ms(st.Step1Time))
			att.add("core."+arm.name+".rotate_ms", ms(st.RotateTime))
			att.add("core."+arm.name+".step2_ms", ms(st.Step2Time))
			att.add("core."+arm.name+".sta_ms", ms(st.TimingTime))
			att.fold(out.spans, "core."+arm.name+".wall_ms")
			counts := map[string]float64{
				"core." + arm.name + ".st_probes":      float64(st.STProbes),
				"core." + arm.name + ".outer_iters":    float64(st.OuterIterations),
				"core." + arm.name + ".probe_timeouts": float64(st.ProbeTimeouts),
			}
			k := rec.KernelSnapshot()
			if k == nil {
				k = &flight.Kernel{}
			}
			foldKernel(out.spans, "lp."+arm.name, k)
			counts["lp."+arm.name+".coverage"] = k.Coverage()
			counts["lp."+arm.name+".simplex_iters"] = float64(k.Iters)
			counts["lp."+arm.name+".solves"] = float64(k.Solves)
			counts["lp."+arm.name+".degenerate"] = float64(k.Degenerate)
			counts["lp."+arm.name+".refreshes"] = float64(k.Refreshes)
			for name, v := range counts {
				out.spans[name] = append(out.spans[name], v)
			}
			binvMax = max(binvMax, 8*float64(k.MaxM)*float64(k.MaxM))
		}
		t0 := time.Now()
		model, tcfg := nbti.DefaultModel(), thermal.DefaultConfig()
		_, errF := core.Evaluate(r.d, maps[0], model, tcfg)
		_, errR := core.Evaluate(r.d, maps[1], model, tcfg)
		eval := ms(time.Since(t0))
		err := checkArms(r, maps[0], maps[1])
		if errF != nil || errR != nil {
			err = fmt.Errorf("evaluate: %v %v", errF, errR)
		}
		if out.count(r.name+" traced", err) {
			traced = append(traced, slowest+eval)
			plain = append(plain, slowestPlain+eval)
		}
	}
	means(out.spans, out.layers)
	out.layers["lp.binv_bytes_max"] = binvMax
	out.layers["trace_overhead_frac"] = median(traced)/median(plain) - 1
	return nil
}

// foldKernel adds one kernel profile's LP wall-clock and phase times, in
// ms, under the given prefix.
func foldKernel(spans map[string][]float64, prefix string, k *flight.Kernel) {
	spans[prefix+".total_ms"] = append(spans[prefix+".total_ms"], float64(k.TotalNanos)/1e6)
	for _, ph := range simplexPhases {
		v := 0.0
		if p := k.Phases[ph]; p != nil {
			v = float64(p.Nanos) / 1e6
		}
		spans[prefix+"."+ph+"_ms"] = append(spans[prefix+"."+ph+"_ms"], v)
	}
}

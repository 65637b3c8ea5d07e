package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/canon"
	"agingfp/internal/core"
	"agingfp/internal/flight"
	"agingfp/internal/obs"
	"agingfp/internal/serve"
	"agingfp/internal/slo"
	"agingfp/internal/telemetry"
	"agingfp/internal/timing"
)

// serveBases are the designs both serve workloads submit: the seven
// 4x4-fabric rows of table1-cold.
var serveBases = []string{"B1", "B4", "B7", "B10", "B13", "B19", "B22"}

const (
	// resubmitClients is 2, the core count and the server's worker
	// count: at 1 client the p50 varied 6-9% between runs, at 2 about 2%.
	resubmitClients = 2
	// deltaClients is 1, so a delta never waits for a worker.
	deltaClients = 1
	// resubmitThink is each serve-resubmit client's pause between ops.
	// The server keeps every finished job in memory (about 20 KB each),
	// so the pause bounds a run to a few thousand jobs.
	resubmitThink = 10 * time.Millisecond
	// deltaPassSeconds is the nominal time of one pass over the delta
	// edit pool on a 2-core x86-64 host.
	deltaPassSeconds = 2.8
	// resubmitWarmupOps and one delta per base warm the server in set-up.
	resubmitWarmupOps = 100
	pollInterval      = time.Millisecond
	// opHeader names the traced op a request belongs to.
	opHeader = "X-Perfbench-Op"
)

// harness is one server configured as agingfloord's defaults (2
// workers, queue 16, cache 64, flight recorder on) plus telemetry and the
// SLO engine in a fresh directory, logging to io.Discard, served on an
// httptest loopback listener. A non-empty opKey is sent as opHeader on
// every request.
type harness struct {
	dir   string
	reg   *obs.Registry
	pipe  *telemetry.Pipeline
	srv   *serve.Server
	hs    *httptest.Server
	hc    *http.Client
	opKey string
}

func startHarness(tmp string) (*harness, error) {
	dir, err := os.MkdirTemp(tmp, "telemetry-")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	engine := slo.New(slo.DefaultObjectives(0.99, nil, 4), slo.Config{Registry: reg, Logger: logger})
	pipe, err := telemetry.Open(telemetry.Config{
		Dir: dir, DriftFactor: 2, SlowPercentile: 0.99, Registry: reg, Logger: logger,
		Observers: []func(*telemetry.SolveEvent){engine.Record},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := serve.New(serve.Config{
		Workers: 2, QueueDepth: 16, CacheEntries: 64,
		Registry: reg, Logger: logger, Telemetry: pipe, SLO: engine,
	})
	hs := httptest.NewServer(srv.Handler())
	return &harness{dir: dir, reg: reg, pipe: pipe, srv: srv, hs: hs, hc: hs.Client()}, nil
}

// close stops the listener, drains the server and removes its files.
func (h *harness) close() {
	h.hs.Close()
	h.srv.Drain()
	h.pipe.Close() //nolint:errcheck // the directory is removed next
	os.RemoveAll(h.dir)
}

func (h *harness) do(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, h.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if h.opKey != "" {
		req.Header.Set(opHeader, h.opKey)
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (h *harness) snapshot(method, path string, body []byte, want int) (serve.Snapshot, error) {
	var snap serve.Snapshot
	data, err := h.do(method, path, body, want)
	if err == nil {
		err = json.Unmarshal(data, &snap)
	}
	return snap, err
}

// finish polls a job until it is terminal and fails unless it is done.
func (h *harness) finish(snap serve.Snapshot) (serve.Snapshot, error) {
	var err error
	for snap.State == serve.StateQueued || snap.State == serve.StateRunning {
		time.Sleep(pollInterval)
		if snap, err = h.snapshot("GET", "/v1/jobs/"+snap.ID, nil, http.StatusOK); err != nil {
			return snap, err
		}
	}
	if snap.State != serve.StateDone {
		return snap, fmt.Errorf("job %s %s: %s", snap.ID, snap.State, snap.Error)
	}
	return snap, nil
}

// submitAndFetch is one timed serve op: POST the body, wait for the job,
// GET its result document. It returns the job's terminal snapshot.
func (h *harness) submitAndFetch(path string, body []byte) (serve.Snapshot, []byte, error) {
	snap, err := h.snapshot("POST", path, body, http.StatusAccepted)
	if err != nil {
		return snap, nil, err
	}
	if snap, err = h.finish(snap); err != nil {
		return snap, nil, err
	}
	res, err := h.do("GET", "/v1/jobs/"+snap.ID+"/result", nil, http.StatusOK)
	return snap, res, err
}

// serveBase is one base design: the synthesized row with its placed
// baseline floorplan, and the checked result of its set-up cold solve.
type serveBase struct {
	name    string
	doc     *arch.Document
	d       *arch.Design
	baseCPD float64
	jobID   string
	res     serve.JobResult
}

// serveSetup is a started server with every base solved once.
type serveSetup struct {
	h     *harness
	bases []*serveBase
	docs  []*arch.Document
}

func (s *serveSetup) close() { s.h.close() }

// buildServe synthesizes and places the bases, starts a server and seeds
// each base with one cold solve, then runs warm.
func buildServe(cfg config, warm func(*serveSetup) error) (*serveSetup, map[string]float64, error) {
	var synth, placeT time.Duration
	st := &serveSetup{}
	for _, name := range cfg.bases {
		d, m0, _, err := synthAndPlace(name, &synth, &placeT)
		if err != nil {
			return nil, nil, err
		}
		doc := arch.ToDocument(d, map[string]arch.Mapping{canon.BaselineMapping: m0})
		st.bases = append(st.bases, &serveBase{name: name, doc: doc, d: d, baseCPD: timing.Analyze(d, m0).CPD})
		st.docs = append(st.docs, doc)
	}
	h, err := startHarness(cfg.tmp)
	if err != nil {
		return nil, nil, err
	}
	st.h = h
	t0 := time.Now()
	if err := st.seed(); err != nil {
		h.close()
		return nil, nil, err
	}
	t1 := time.Now()
	if err := warm(st); err != nil {
		h.close()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, map[string]float64{
		"setup.synth_ms":      ms(synth),
		"setup.place_ms":      ms(placeT),
		"setup.seed_solve_ms": ms(t1.Sub(t0)),
		"setup.warmup_ms":     ms(time.Since(t1)),
	}, nil
}

// seed submits every base, then waits for each cold solve and checks it.
func (s *serveSetup) seed() error {
	snaps := make([]serve.Snapshot, len(s.bases))
	for i, b := range s.bases {
		body, err := json.Marshal(serve.JobRequest{Design: b.doc})
		if err != nil {
			return err
		}
		if snaps[i], err = s.h.snapshot("POST", "/v1/jobs", body, http.StatusAccepted); err != nil {
			return fmt.Errorf("seed %s: %w", b.name, err)
		}
	}
	for i, b := range s.bases {
		snap, err := s.h.finish(snaps[i])
		if err != nil {
			return fmt.Errorf("seed %s: %w", b.name, err)
		}
		raw, err := s.h.do("GET", "/v1/jobs/"+snap.ID+"/result", nil, http.StatusOK)
		if err != nil {
			return fmt.Errorf("seed %s: %w", b.name, err)
		}
		if err := json.Unmarshal(raw, &b.res); err != nil {
			return fmt.Errorf("seed %s: %w", b.name, err)
		}
		if err := checkFloorplan(b.d, mappingOf(b.res.Mapping), b.baseCPD); err != nil {
			return fmt.Errorf("seed %s: %w", b.name, err)
		}
		b.jobID = snap.ID
	}
	return nil
}

// closedLoop runs clients goroutines, each calling op with its client
// index and op number until the duration is spent (at least one op each).
func closedLoop(clients int, d time.Duration, op func(client, n int)) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for n := 0; n == 0 || time.Now().Before(deadline); n++ {
				op(c, n)
			}
		}(c)
	}
	wg.Wait()
}

// checkResubmit verifies a serve-resubmit result: it must equal the
// base's checked result with the mapping moved through the permutation
// the benchmark applied. Equality with a checked result under an
// isomorphism makes it a valid floorplan of the renumbered design.
func checkResubmit(b *serveBase, op resubmitOp, raw []byte) (float64, error) {
	var got serve.JobResult
	if err := json.Unmarshal(raw, &got); err != nil {
		return 0, err
	}
	want := b.res
	want.Mapping = make([][2]int, len(b.res.Mapping))
	for i, c := range b.res.Mapping {
		want.Mapping[op.perm[i]] = c
	}
	if !reflect.DeepEqual(got, want) {
		return 0, fmt.Errorf("result differs from base %s under the applied renumbering", b.name)
	}
	return got.MTTF.Increase, nil
}

// resubmitOp runs and checks one serve-resubmit op. It returns the op's
// latency, the cache tier that answered and the check's verdict.
func (s *serveSetup) resubmit(op resubmitOp) (float64, string, float64, error) {
	t0 := time.Now()
	snap, raw, err := s.h.submitAndFetch("/v1/jobs", op.body)
	lat := ms(time.Since(t0))
	if err != nil {
		return lat, snap.SolveKind, 0, err
	}
	gain, err := checkResubmit(s.bases[op.base], op, raw)
	return lat, snap.SolveKind, gain, err
}

func warmResubmit(s *serveSetup) error {
	stream := newResubmitStream(-1, 0, s.docs)
	for i := 0; i < resubmitWarmupOps; i++ {
		op, err := stream.next()
		if err != nil {
			return err
		}
		if _, _, _, err := s.resubmit(op); err != nil {
			return err
		}
	}
	return nil
}

// runResubmit: each op POSTs a seeded renumbering of a base and GETs its
// result, with 2 clients in a closed loop; set-up solved every base, so
// every op is a cache hit and no op does solver work.
func runResubmit(ctx context.Context, cfg config) (*outcome, error) {
	st, setupS, layers, err := repeatSetup(func() (*serveSetup, map[string]float64, error) {
		return buildServe(cfg, warmResubmit)
	}, (*serveSetup).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	out := newOutcome(resubmitClients, setupS, layers)
	events := st.h.reg.Counter("agingfp_telemetry_events_total")
	events0 := events.Value()
	var mu sync.Mutex
	tiers := map[string]int{}
	streams := make([]*resubmitStream, resubmitClients)
	for c := range streams {
		streams[c] = newResubmitStream(cfg.seed, c, st.docs)
	}
	closedLoop(resubmitClients, cfg.duration, func(c, n int) {
		op, err := streams[c].next()
		var lat, gain float64
		var tier string
		if err == nil {
			lat, tier, gain, err = st.resubmit(op)
		}
		mu.Lock()
		tiers[tier]++
		out.record("", fmt.Sprintf("client %d op %d (%s)", c, n, st.bases[op.base].name), lat, gain, err)
		mu.Unlock()
		time.Sleep(resubmitThink)
	})
	if !cfg.traced {
		return out, nil
	}
	n := float64(out.stats.attempted)
	out.layers["serve.semantic_hit_frac"] = float64(tiers["semantic_hit"]) / n
	out.layers["serve.exact_hit_frac"] = float64(tiers["exact_hit"]) / n
	out.layers["serve.miss_count"] = n - float64(tiers["semantic_hit"]+tiers["exact_hit"])
	out.layers["telemetry.events"] = float64(events.Value()-events0) / n
	return out, traceResubmit(cfg, st, out)
}

// resubmitLayers split a traced serve-resubmit op's round trip, in the
// order they run.
var resubmitLayers = []string{"serve.decode_ms", "arch.validate_ms", "canon.canonicalize_ms",
	"serve.submit_ms", "serve.result_ms"}

// opClock wraps the server's handler in the traced serve-resubmit run and
// times, inside every request that names a traced op, that op's layers.
// Before the POST handler it runs the handler's first steps on the body
// itself (JSON decode, arch.FromDocument, canon.Canonicalize); then it
// times the whole POST handler, which repeats those steps inside
// Server.Submit, and the result GET's handler. The client, the transport
// and any status poll stay outside every layer.
type opClock struct {
	next http.Handler
	mu   sync.Mutex
	ops  map[string]map[string]float64
}

func (c *opClock) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key, layer := r.Header.Get(opHeader), ""
	switch {
	case key == "":
	case r.Method == http.MethodPost:
		layer = "serve.submit_ms"
	case strings.HasSuffix(r.URL.Path, "/result"):
		layer = "serve.result_ms"
	}
	if layer == "" {
		c.next.ServeHTTP(w, r)
		return
	}
	times := map[string]float64{}
	if r.Method == http.MethodPost {
		body, err := io.ReadAll(r.Body)
		if err == nil {
			err = submitSteps(body, times)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	t0 := time.Now()
	c.next.ServeHTTP(w, r)
	times[layer] = ms(time.Since(t0))
	c.mu.Lock()
	if c.ops[key] == nil {
		c.ops[key] = map[string]float64{}
	}
	for name, v := range times {
		c.ops[key][name] += v
	}
	c.mu.Unlock()
}

// take removes and returns the layer times booked to one op.
func (c *opClock) take(key string) map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	times := c.ops[key]
	delete(c.ops, key)
	return times
}

// submitSteps times the submit handler's first steps on one body.
func submitSteps(body []byte, times map[string]float64) error {
	t0 := time.Now()
	var req serve.JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	t1 := time.Now()
	if _, _, err := arch.FromDocument(req.Design); err != nil {
		return err
	}
	t2 := time.Now()
	if _, err := canon.Canonicalize(req.Design); err != nil {
		return err
	}
	times["serve.decode_ms"] = ms(t1.Sub(t0))
	times["arch.validate_ms"] = ms(t2.Sub(t1))
	times["canon.canonicalize_ms"] = ms(time.Since(t2))
	return nil
}

// traceResubmit runs the workload's closed loop again, for half the
// duration, with the same streams, through a second listener on the same
// server whose handler is wrapped in an opClock. Each op's round trip
// splits into the layers the clock timed inside its requests; the rest
// (client, transport, reading the body) is serve.unattributed_ms. The extra decode, validation and canonicalization
// the clock runs are part of the traced op, so trace_overhead_frac
// includes them.
func traceResubmit(cfg config, st *serveSetup, out *outcome) error {
	clock := &opClock{next: st.h.srv.Handler(), ops: map[string]map[string]float64{}}
	hs := httptest.NewServer(clock)
	defer hs.Close()
	var mu sync.Mutex
	var traced []float64
	streams := make([]*resubmitStream, resubmitClients)
	for c := range streams {
		streams[c] = newResubmitStream(cfg.seed, c, st.docs)
	}
	closedLoop(resubmitClients, cfg.duration/2, func(c, n int) {
		h := *st.h
		h.hs, h.hc, h.opKey = hs, hs.Client(), fmt.Sprintf("%d/%d", c, n)
		op, err := streams[c].next()
		var lat float64
		if err == nil {
			lat, _, _, err = (&serveSetup{h: &h, bases: st.bases}).resubmit(op)
		}
		times := clock.take(h.opKey)
		mu.Lock()
		if out.count(fmt.Sprintf("traced client %d op %d", c, n), err) {
			traced = append(traced, lat)
			att := attribution{wall: lat, rest: "serve.unattributed_ms"}
			for _, l := range resubmitLayers {
				att.add(l, times[l])
			}
			att.fold(out.spans, "serve.rtt_ms")
		}
		mu.Unlock()
		time.Sleep(resubmitThink)
	})
	means(out.spans, out.layers)
	out.layers["trace_overhead_frac"] = median(traced)/median(out.stats.latencyMs) - 1
	return nil
}

// checkDelta verifies a delta result against the edited design: a legal
// floorplan whose re-timed CPD is at or below the edited design's
// baseline CPD.
func checkDelta(op deltaOp, raw []byte) (float64, error) {
	d, maps, err := arch.FromDocument(op.doc)
	if err != nil {
		return 0, err
	}
	var got serve.JobResult
	if err := json.Unmarshal(raw, &got); err != nil {
		return 0, err
	}
	baseCPD := timing.Analyze(d, maps[canon.BaselineMapping]).CPD
	return got.MTTF.Increase, checkFloorplan(d, mappingOf(got.Mapping), baseCPD)
}

// delta runs and checks one delta-edits op: POST the edit against its
// set-up base, wait for the re-solve, GET the result.
func (s *serveSetup) delta(op deltaOp) (float64, serve.Snapshot, float64, error) {
	t0 := time.Now()
	snap, raw, err := s.h.submitAndFetch("/v1/jobs/"+s.bases[op.base].jobID+"/delta", op.body)
	lat := ms(time.Since(t0))
	if err != nil {
		return lat, snap, 0, err
	}
	gain, err := checkDelta(op, raw)
	return lat, snap, gain, err
}

// warmDelta sends the first pooled edit of every base.
func warmDelta(s *serveSetup) error {
	pool, err := deltaPool(s.docs)
	if err != nil {
		return err
	}
	for _, op := range pool {
		if op.op == 0 {
			if _, _, _, err := s.delta(op); err != nil {
				return err
			}
		}
	}
	return nil
}

// runDelta: each op POSTs a one-op kind flip of a base as a delta against
// the set-up base job, waits for the warm re-solve and GETs the result,
// with 1 client, in seed-shuffled passes over the edit pool.
func runDelta(ctx context.Context, cfg config) (*outcome, error) {
	st, setupS, layers, err := repeatSetup(func() (*serveSetup, map[string]float64, error) {
		return buildServe(cfg, warmDelta)
	}, (*serveSetup).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	pool, err := deltaPool(st.docs)
	if err != nil {
		return nil, err
	}
	out := newOutcome(deltaClients, setupS, layers)
	var seeded, frozen, bases []float64
	rng := rand.New(rand.NewSource(cfg.seed))
	passes := shuffledPasses(rng, len(pool), passesFor(cfg.duration, deltaPassSeconds), func(pass, i int) {
		op := pool[i]
		lat, snap, gain, err := st.delta(op)
		edit := fmt.Sprintf("%s op %d", st.bases[op.base].name, op.op)
		out.record(edit, fmt.Sprintf("pass %d: %s", pass, edit), lat, gain, err)
		if err == nil {
			seeded = append(seeded, b2f(snap.DeltaFallback == ""))
			reuse := serve.ReuseInfo{}
			if snap.Reuse != nil {
				reuse = *snap.Reuse
			}
			frozen = append(frozen, b2f(reuse.FrozenReused))
			bases = append(bases, float64(reuse.BasesSeeded))
		}
	})
	if !cfg.traced {
		return out, nil
	}
	out.layers["serve.delta_seeded_frac"] = mean(seeded)
	out.layers["serve.frozen_reused_frac"] = mean(frozen)
	out.layers["serve.bases_seeded"] = mean(bases)
	return out, traceDelta(ctx, st, pool, passes[0], out)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// deltaReplay re-runs a delta edit in process with a kernel-profiling
// flight recorder, the way the server runs it: the base's canonical
// instance solved cold, then core.RemapFromPrior from that solve on the
// edited canonical instance. The server's delta jobs carry no simplex
// phase times (SubmitDelta does not arm their recorder's kernel
// profiler), so lp.delta.* come from this replay.
type deltaReplay struct {
	form  *canon.Form
	m0    arch.Mapping
	opts  core.Options
	prior *core.Prior
}

func newDeltaReplay(ctx context.Context, doc *arch.Document) (*deltaReplay, error) {
	form, err := canon.Canonicalize(doc)
	if err != nil {
		return nil, err
	}
	d, maps, err := arch.FromDocument(form.Doc)
	if err != nil {
		return nil, err
	}
	r := &deltaReplay{form: form, m0: maps[canon.BaselineMapping], opts: core.DefaultOptions()}
	res, err := core.Remap(ctx, d, r.m0, r.opts)
	if err != nil {
		return nil, err
	}
	r.prior = &core.Prior{Frozen: res.FrozenOps, STTarget: res.STTarget, STLowerBound: res.STLowerBound,
		Bases: res.Bases, Mapping: res.Mapping}
	return r, nil
}

// run replays the flip of op i (in the base document's numbering).
func (r *deltaReplay) run(ctx context.Context, i int) (*flight.Kernel, error) {
	d, _, err := arch.FromDocument(flipKind(r.form.Doc, r.form.OpPerm[i]))
	if err != nil {
		return nil, err
	}
	rec := flight.NewRecorder(0)
	rec.EnableKernel(0)
	opts := r.opts
	opts.Flight = rec
	if _, err := core.RemapFromPrior(ctx, d, r.m0, opts, r.prior); err != nil {
		return nil, err
	}
	if k := rec.KernelSnapshot(); k != nil {
		return k, nil
	}
	return &flight.Kernel{}, nil
}

// traceDelta makes one traced pass in the seed's first order on the
// run's server. Each op's round trip is split into the queue wait and
// solve time of its cost block; the rest (HTTP, polling, submit and
// render) is serve.delta_unattributed_ms. The same edit is then replayed
// in process for its simplex phase times.
func traceDelta(ctx context.Context, tr *serveSetup, pool []deltaOp, order []int, out *outcome) error {
	replays := make([]*deltaReplay, len(tr.bases))
	for i, b := range tr.bases {
		var err error
		if replays[i], err = newDeltaReplay(ctx, b.doc); err != nil {
			return fmt.Errorf("replay base %s: %w", b.name, err)
		}
	}
	var traced []float64
	for _, i := range order {
		op := pool[i]
		lat, snap, _, err := tr.delta(op)
		for err == nil && snap.Cost == nil {
			// The cost block lands just after the job turns done.
			time.Sleep(pollInterval)
			snap, err = tr.h.snapshot("GET", "/v1/jobs/"+snap.ID, nil, http.StatusOK)
		}
		var k *flight.Kernel
		if err == nil {
			k, err = replays[op.base].run(ctx, op.op)
		}
		if !out.count(fmt.Sprintf("traced %s op %d", tr.bases[op.base].name, op.op), err) {
			continue
		}
		traced = append(traced, lat)
		att := attribution{wall: lat, rest: "serve.delta_unattributed_ms"}
		att.add("serve.queue_wait_ms", snap.Cost.QueueWaitMs)
		att.add("serve.solve_ms", snap.Cost.SolveMs)
		att.fold(out.spans, "serve.delta_rtt_ms")
		out.spans["lp.delta.simplex_iters"] = append(out.spans["lp.delta.simplex_iters"], float64(snap.Cost.SimplexIters))
		out.spans["core.delta.st_probes"] = append(out.spans["core.delta.st_probes"], float64(snap.Cost.STProbes))
		foldKernel(out.spans, "lp.delta", k)
	}
	means(out.spans, out.layers)
	out.layers["trace_overhead_frac"] = median(traced)/median(out.stats.latencyMs) - 1
	return nil
}

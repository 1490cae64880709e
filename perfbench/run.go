package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
	"time"

	"unigpu"
	"unigpu/internal/bench"
	"unigpu/internal/obs"
	"unigpu/internal/tensor"
)

// prepared is the state every run builds before it measures: inputs,
// references, the set-up system and its goldens.
type prepared struct {
	ins    []*tensor.Tensor
	chk    *checker
	sys    *system
	setups []float64 // seconds
}

// prepare generates the inputs, computes the references, sets the system
// up once and records the goldens. Every check failure marks res
// incorrect.
func prepare(ctx context.Context, w *workload, seed int64, res *result, onStage func(string) func()) (*prepared, error) {
	p := &prepared{ins: makeInputs(w, seed)}
	end := onStage("reference")
	refs, err := references(w, p.ins)
	end()
	if err != nil {
		return nil, err
	}
	p.chk = &checker{w: w, refs: refs}
	if err := p.setUp(ctx, w, res, onStage); err != nil {
		return nil, err
	}

	end = onStage("golden")
	defer end()
	sess, err := p.sys.cm.NewSession()
	if err != nil {
		p.sys.srv.Close()
		return nil, err
	}
	golds := make([]*tensor.Tensor, len(p.ins))
	for i, in := range p.ins {
		out, err := sess.Run(in)
		if err != nil {
			p.sys.srv.Close()
			return nil, fmt.Errorf("serial run %d: %w", i, err)
		}
		golds[i] = out.Clone()
	}
	if err := p.chk.setGoldens(golds); err != nil {
		res.fail("serial run vs reference: %v", err)
	}
	if err := p.chk.check(0, p.sys.first); err != nil {
		res.fail("first inference vs serial run: %v", err)
	}
	// Warm-up: every input once through the serving edge, unmeasured.
	for i, in := range p.ins {
		out, err := p.sys.srv.Run(ctx, in)
		if err != nil {
			p.sys.srv.Close()
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
		if err := p.chk.check(i, out); err != nil {
			res.fail("warm-up: %v", err)
		}
	}
	return p, nil
}

// setUp sets the system up once more, closing the previous one, and
// checks that the new set-up predicts the same simulated latency and pins
// the same arena as the previous one, and that its first inference
// matches the reference.
func (p *prepared) setUp(ctx context.Context, w *workload, res *result, onStage func(string) func()) error {
	prev := p.sys
	if prev != nil {
		prev.srv.Close()
	}
	goruntime.GC()
	end := onStage("setup")
	sys, err := setUp(ctx, w, p.ins[0], onStage)
	end()
	if err != nil {
		return err
	}
	p.sys = sys
	p.setups = append(p.setups, sys.setup.Seconds())
	if err := p.chk.againstRef(0, sys.first); err != nil {
		res.fail("first inference: %v", err)
	}
	if prev == nil {
		return nil
	}
	a, err := sys.arenaBytes()
	if err != nil {
		return err
	}
	pa, err := prev.arenaBytes()
	if err != nil {
		return err
	}
	if pm, m := prev.cm.PredictedLatencyMs, sys.cm.PredictedLatencyMs; pm != m || pa != a {
		res.fail("set-up %d is not deterministic: sim %v ms, arena %d B; before: %v ms, %d B", len(p.setups)-1, m, a, pm, pa)
	}
	return nil
}

// serve runs the workload's measured phase.
func (p *prepared) serve(ctx context.Context, w *workload, seed int64, dur time.Duration, parent *obs.Span) *loadResult {
	goruntime.GC()
	l := &load{srv: p.sys.srv, chk: p.chk, ins: p.ins, dur: dur, min: w.minRequests(), parent: parent}
	if w.Fleet {
		f, fav := p.sys.fleet, p.sys.favoured
		l.phases = []phase{
			{name: "healthy"},
			{name: "lost", at: 1.0 / 3, action: func() {
				sp := parent.Child("fault.kill", obs.KV("replica", f.Name(fav)))
				f.Kill(fav)
				sp.End()
			}},
			{name: "ramp", at: 2.0 / 3, action: func() {
				sp := parent.Child("fault.heal", obs.KV("replica", f.Name(fav)))
				defer sp.End()
				for try := 0; try < 40; try++ {
					if f.HealNow(fav) {
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
				fmt.Fprintf(os.Stderr, "FAIL: fault script: %s did not heal\n", f.Name(fav))
			}},
		}
	}
	if w.open() {
		return openLoop(ctx, l, seed, w.Rate)
	}
	return closedLoop(ctx, l, w.Clients)
}

// account adds a measured phase to the run's totals and marks the run
// incorrect when the phase cannot support its percentiles.
func account(w *workload, r *loadResult, res *result) summary {
	s := summarize(r, w.LimitMs, -1, w.Segments)
	res.attempted += s.sent
	res.failed += s.failed + s.wrong
	if s.wrong > 0 {
		res.fail("%d of %d outputs failed the check", s.wrong, s.sent)
	}
	if s.completed < w.minRequests() {
		res.fail("only %d requests completed; p95 needs at least %d", s.completed, w.minRequests())
	}
	if w.Fleet && len(r.phases) == 3 {
		for i, ph := range r.phases {
			if n := summarize(r, w.LimitMs, i, 1).sent; n == 0 {
				res.fail("fleet phase %s sent no requests", ph.name)
			}
		}
	}
	return s
}

// runEndToEnd is the untraced run: set up, serve for dur, then set up
// SetupReps-1 more times for the median set-up time. The extra set-ups
// come after the measured phase, so serving runs on the heap of a process
// that set up once, and peak_rss_mib is read before them.
func runEndToEnd(ctx context.Context, w *workload, seed int64, dur time.Duration) (*result, error) {
	res := &result{correct: true, values: metrics{}, info: metrics{}}
	noop := func(string) func() { return func() {} }
	p, err := prepare(ctx, w, seed, res, noop)
	if err != nil {
		return nil, err
	}
	off := obs.NewTracer().Start("off") // disabled tracer: no-op spans
	steal0, total0 := cpuTicks()
	r := p.serve(ctx, w, seed, dur, off)
	if steal1, total1 := cpuTicks(); total1 > total0 {
		res.info["host_cpu_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	s := account(w, r, res)
	if w.Fleet && obs.DefaultRegistry.Counter("fleet.heals").Value() == 0 {
		res.fail("fault script: the killed replica never healed")
	}
	res.values["peak_rss_mib"] = peakRSSMiB()
	arena, err := p.sys.arenaBytes()
	if err != nil {
		p.sys.srv.Close()
		return nil, err
	}
	res.info["sim_latency_ms"] = p.sys.cm.PredictedLatencyMs
	for len(p.setups) < w.SetupReps {
		if err := p.setUp(ctx, w, res, noop); err != nil {
			return nil, err
		}
	}
	p.sys.srv.Close()

	res.values["setup_s"] = median(p.setups)
	res.values["latency_p50_ms"] = s.p50
	res.values["latency_p95_ms"] = s.p95
	res.values["throughput_rps"] = s.throughput
	res.values["goodput_ratio"] = s.goodput
	res.values["arena_kib"] = float64(arena) / 1024
	res.info["error_ratio"] = float64(s.failed+s.wrong) / float64(s.sent)
	res.info["requests_completed"] = float64(s.completed)
	res.info["max_rel_err_vs_reference"] = p.chk.maxErr
	res.info["tolerance"] = w.Tol
	return res, nil
}

// runTraced is the separate traced run. It records spans from the
// benchmark's own code around every layer call, replays the compile
// pipeline layer by layer on a fresh estimator, profiles the plan's nodes,
// and serves twice — with a span per request, then untraced — to report
// the per-layer metrics and the tracing overhead. It writes the spans as
// one Chrome trace to tracePath.
func runTraced(ctx context.Context, w *workload, seed int64, dur time.Duration, tracePath string) (*result, error) {
	res := &result{correct: true, values: metrics{}, info: metrics{}}
	m := res.values
	tr := obs.NewTracer()
	tr.Enable()
	root := tr.Start("perfbench", obs.KV("workload", w.Name))
	stage := func(name string) func() {
		sp := root.Child(name)
		return sp.End
	}

	layers := root.Child("setup.layers")
	est := bench.NewEstimator()
	plats := []*unigpu.Platform{unigpu.DeepLens}
	if w.Fleet {
		plats = unigpu.Platforms()
	}
	for _, pl := range plats {
		if err := layerCompile(w, est, pl, m, layers); err != nil {
			return nil, err
		}
	}
	layers.End()

	p, err := prepare(ctx, w, seed, res, stage)
	if err != nil {
		return nil, err
	}
	defer p.sys.srv.Close()
	m["runtime.batch_plans_ms"] = ms(p.sys.warmBatch)
	if pm := p.sys.cm.PredictedLatencyMs; pm != m["sim_latency_ms"] {
		res.fail("layer-by-layer compile predicts %v ms, Engine.Compile %v ms", m["sim_latency_ms"], pm)
	}
	if a, err := p.sys.arenaBytes(); err != nil || float64(a)/1024 != m["runtime.arena_kib"] {
		res.fail("layer-by-layer plan arena %v KiB differs from the engine's %d B (%v)", m["runtime.arena_kib"], a, err)
	}

	if err := profileOps(p.sys.cm, p.ins, dur*15/100, m, root); err != nil {
		return nil, err
	}
	if err := sessionRuns(p.sys.cm, p.ins, dur/10, m, root); err != nil {
		return nil, err
	}

	// The per-layer figures need no segment medians: serve the shorter
	// phases with one segment. The traced phase comes first, so it sees
	// the system (and the fleet's replicas) in the state the end-to-end
	// run measures; the untraced phase after it sets the overhead's base.
	one := *w
	one.Segments = 1
	w = &one
	obs.DefaultRegistry.Reset()
	var before []int64
	if p.sys.fleet != nil {
		for i := 0; i < p.sys.fleet.Len(); i++ {
			before = append(before, p.sys.fleet.Served(i))
		}
	}
	sp := root.Child("serve.traced")
	traced := p.serve(ctx, w, seed, dur*35/100, sp)
	sp.End()
	s := account(w, traced, res)
	servingLayers(w, p.sys, before, m)
	loadLayers(w, traced, m)
	if w.Fleet && m["runtime.fleet.heals"] == 0 {
		res.fail("fault script: the killed replica never healed")
	}

	off := obs.NewTracer().Start("off")
	plain := p.serve(ctx, w, seed, dur*35/100, off)
	if u := account(w, plain, res).p50; u > 0 {
		m["obs.trace_overhead_ratio"] = s.p50 / u
	}
	root.End()

	if err := writeTrace(tr, tracePath); err != nil {
		res.fail("chrome trace: %v", err)
	}
	fmt.Printf("chrome trace: %s\n", tracePath)
	return res, nil
}

// writeTrace writes the spans as Chrome trace JSON and reads the file back
// to prove it parses.
func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return err
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("%s holds no events", path)
	}
	return nil
}

func sortedKeys(m metrics) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"unigpu"
	"unigpu/internal/bench"
	"unigpu/internal/graph"
	"unigpu/internal/models"
	"unigpu/internal/obs"
	"unigpu/internal/runtime"
	"unigpu/internal/tensor"
)

// metrics is a named set of measured values.
type metrics map[string]float64

// layerCompile replays Engine.Compile's stages for one platform, each a
// public layer call timed from outside and wrapped in a span, on the
// given (fresh) estimator. Time and count metrics add up across calls, so
// a fleet reports the sum of its replicas' compiles; the sim.* and plan
// figures are set only for AWS DeepLens, the platform sim_latency_ms
// reports.
func layerCompile(w *workload, est *bench.Estimator, p *unigpu.Platform, m metrics, parent *obs.Span) error {
	timed := func(name string, f func()) {
		sp := parent.Child(name, obs.KV("platform", p.Name))
		t := time.Now()
		f()
		m[name+"_ms"] += ms(time.Since(t))
		sp.End()
	}

	var mod *models.Model
	timed("models.build", func() { mod = models.Build(w.Model, w.Size, false) })
	before := len(mod.Graph.OpNodes())
	timed("graph.optimize", func() { graph.Optimize(mod.Graph) })
	m["graph.nodes_removed"] += float64(before - len(mod.Graph.OpNodes()))

	mode, ok := graph.ParseQuantMode(w.DType)
	if !ok {
		return fmt.Errorf("unknown dtype %q", w.DType)
	}
	var qs graph.QuantizeStats
	var qerr error
	timed("graph.quantize", func() {
		qs, qerr = graph.QuantizeGraph(mod.Graph, graph.QuantizeOptions{Mode: mode, Device: p.GPU})
	})
	if qerr != nil {
		return fmt.Errorf("quantize: %w", qerr)
	}
	m["graph.casts_inserted"] += float64(qs.CastsInserted)

	timed("graph.select", func() {
		for k, c := range graph.SelectConvKernels(mod.Graph, graph.KernelSelection{Device: p.GPU, DB: est.DB}) {
			m["graph.kernels."+k.String()] += float64(c)
		}
	})
	timed("graph.place", func() {
		m["graph.copies"] += float64(graph.PlaceDevices(mod.Graph, graph.PlacementOptions{}))
	})

	trials := obs.DefaultRegistry.Counter("tune.trials")
	t0 := trials.Value()
	var tuned struct{ kernelMs, transformMs float64 }
	timed("bench.tune", func() {
		plan := est.TunedConvMs(mod, p.GPU)
		tuned.kernelMs, tuned.transformMs = plan.KernelMs, plan.TransformMs
	})
	m["autotvm.trials"] += float64(trials.Value() - t0)
	m["bench.conv_workloads"] += float64(len(mod.Convs))
	unique := map[string]bool{}
	for _, cw := range mod.Convs {
		unique[cw.Key()] = true
	}
	m["bench.unique_workloads"] += float64(len(unique))

	var convMs, otherMs, visMs float64
	timed("bench.price", func() {
		convMs = tuned.kernelMs * graph.DTypeConvScale(mod.Graph, p.GPU)
		otherMs = est.OtherOpsMs(mod, p.GPU)
		visMs = bench.OptimizedVisionMs(mod.Vision, p.GPU)
	})

	var plan *runtime.Plan
	var perr error
	timed("runtime.plan", func() { plan, perr = runtime.NewPlan(mod.Graph) })
	if perr != nil {
		return fmt.Errorf("plan: %w", perr)
	}
	if p != unigpu.DeepLens {
		return nil
	}
	m["sim.conv_ms"] = convMs
	m["sim.transform_ms"] = tuned.transformMs
	m["sim.vision_ms"] = visMs
	m["sim.other_ms"] = otherMs
	m["sim_latency_ms"] = convMs + tuned.transformMs + otherMs + visMs
	m["runtime.plan_nodes"] = float64(plan.NumNodes())
	m["runtime.arena_kib"] = float64(plan.ArenaBytes()) / 1024
	m["runtime.intermediate_kib"] = float64(plan.IntermediateBytes()) / 1024
	var flops float64
	for _, n := range mod.Graph.OpNodes() {
		if c, ok := n.Op.(*graph.ConvOp); ok {
			flops += c.W.FLOPs()
		}
	}
	m["conv_flops"] = flops
	return nil
}

// kindMetric maps a plan node's operator kind to the ops.* or vision.*
// metric its wall time counts towards.
func kindMetric(kind string) string {
	switch kind {
	case "conv2d":
		return "ops.conv_ms"
	case "pool2d", "global_avg_pool":
		return "ops.pool_ms"
	case "concat":
		return "ops.concat_ms"
	case "cast":
		return "ops.cast_ms"
	case "dense":
		return "ops.dense_ms"
	case "softmax":
		return "ops.softmax_ms"
	case "multibox_detection", "box_nms":
		return "vision.multibox_ms"
	case "head_reshape":
		return "vision.reshape_ms"
	}
	// relu, add, fused_elementwise, flatten, device_copy, ...
	return "ops.elementwise_ms"
}

// profileOps runs the compiled plan in a serial SessionOptions{Profile:
// true} session for at least budget (and at least minRuns runs) and
// reports, per operator category, the median over runs of the summed
// NodeProfile.Wall, plus runtime.dispatch_ms: run wall minus the summed
// node wall.
func profileOps(cm *unigpu.CompiledModel, ins []*tensor.Tensor, budget time.Duration, m metrics, parent *obs.Span) error {
	sp := parent.Child("ops.profile")
	defer sp.End()
	plan, err := cm.Plan()
	if err != nil {
		return err
	}
	s := plan.NewSessionWith(runtime.SessionOptions{Profile: true, Model: cm.Name})
	feeds := map[string]*tensor.Tensor{}
	per := map[string][]float64{}
	const minRuns = 10
	start := time.Now()
	for r := 0; r < minRuns || time.Since(start) < budget; r++ {
		feeds["data"] = ins[r%len(ins)]
		t := time.Now()
		if _, err := s.Run(feeds); err != nil {
			return fmt.Errorf("profiled run: %w", err)
		}
		wall := time.Since(t)
		sums := metrics{}
		var nodes time.Duration
		for _, np := range s.Profile() {
			sums[kindMetric(np.Kind)] += ms(np.Wall)
			nodes += np.Wall
		}
		for _, name := range opsMetrics {
			per[name] = append(per[name], sums[name])
		}
		per["runtime.dispatch_ms"] = append(per["runtime.dispatch_ms"], ms(wall-nodes))
	}
	for name, v := range per {
		m[name] = median(v)
	}
	if c := m["ops.conv_ms"]; c > 0 {
		m["ops.conv_gflops"] = m["conv_flops"] / (c * 1e6)
	}
	sp.SetAttrs(obs.KVFloat("conv_ms", m["ops.conv_ms"]))
	return nil
}

var opsMetrics = []string{
	"ops.conv_ms", "ops.pool_ms", "ops.concat_ms", "ops.cast_ms", "ops.dense_ms",
	"ops.softmax_ms", "ops.elementwise_ms", "vision.multibox_ms", "vision.reshape_ms",
}

// sessionRuns times the public serial Session.Run for at least budget and
// reports its median and the heap allocations per run.
func sessionRuns(cm *unigpu.CompiledModel, ins []*tensor.Tensor, budget time.Duration, m metrics, parent *obs.Span) error {
	sp := parent.Child("runtime.session_run")
	defer sp.End()
	s, err := cm.NewSession()
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ { // first runs size the arena-backed outputs
		if _, err := s.Run(ins[i%len(ins)]); err != nil {
			return err
		}
	}
	const minRuns = 10
	lats := make([]float64, 0, 256)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < minRuns || time.Since(start) < budget; r++ {
		t := time.Now()
		if _, err := s.Run(ins[r%len(ins)]); err != nil {
			return fmt.Errorf("session run: %w", err)
		}
		lats = append(lats, ms(time.Since(t)))
	}
	goruntime.ReadMemStats(&after)
	m["runtime.session_run_ms"] = median(lats)
	m["runtime.allocs_per_run"] = float64(after.Mallocs-before.Mallocs) / float64(len(lats))
	return nil
}

// servingLayers reads the pool, batch and fleet instrumentation the
// runtime already keeps (obs.DefaultRegistry, reset before the phase, and
// Fleet.Served) after a measured phase.
func servingLayers(w *workload, sys *system, servedBefore []int64, m metrics) {
	reg := obs.DefaultRegistry
	m["runtime.pool.queue_wait_ms_p95"] = reg.Histogram("pool.queue_wait_ns").Quantile(0.95) / 1e6
	m["runtime.pool.shed"] = float64(reg.Counter("admission.shed").Value())
	if w.Batch != nil {
		label := sys.cm.Name
		if h := reg.Histogram("batch.size." + label); h.Count() > 0 {
			m["runtime.batch.size_mean"] = h.Sum() / float64(h.Count())
		}
		m["runtime.batch.linger_ms_p50"] = reg.Histogram("batch.linger_wait_ns").Quantile(0.5) / 1e6
		m["runtime.batch.degraded"] = float64(reg.Counter("batch.degraded." + label).Value())
	}
	if sys.fleet == nil {
		return
	}
	m["runtime.fleet.failovers"] = float64(reg.Counter("fleet.failover").Value())
	m["runtime.fleet.quarantines"] = float64(reg.Counter("fleet.quarantines").Value())
	m["runtime.fleet.heals"] = float64(reg.Counter("fleet.heals").Value())
	var total int64
	delta := make([]int64, sys.fleet.Len())
	for i := range delta {
		delta[i] = sys.fleet.Served(i) - servedBefore[i]
		total += delta[i]
	}
	for i, d := range delta {
		if total > 0 {
			m["runtime.fleet.served_share."+sys.fleet.Name(i)] = float64(d) / float64(total)
		}
	}
}

// loadLayers reports the generator's own view of a measured phase: how
// late it sent (open loop) and sent/succeeded/failed overall and per
// phase, plus each fleet phase's p95.
func loadLayers(w *workload, r *loadResult, m metrics) {
	lags := make([]float64, len(r.lags))
	for i, l := range r.lags {
		lags[i] = ms(l)
	}
	if len(lags) > 0 {
		m["loadgen.lag_p95_ms"] = quantile(lags, 0.95)
	}
	all := summarize(r, w.LimitMs, -1, 1)
	m["loadgen.sent"] = float64(all.sent)
	m["loadgen.succeeded"] = float64(all.succeeded)
	m["loadgen.failed"] = float64(all.failed + all.wrong)
	m["error_ratio"] = float64(all.failed+all.wrong) / float64(all.sent)
	if len(r.phases) < 2 {
		return
	}
	for i, p := range r.phases {
		s := summarize(r, w.LimitMs, i, 1)
		m["loadgen.phase."+p.name+".sent"] = float64(s.sent)
		m["loadgen.phase."+p.name+".succeeded"] = float64(s.succeeded)
		m["loadgen.phase."+p.name+".failed"] = float64(s.failed + s.wrong)
		if s.completed > 0 {
			m["runtime.fleet.phase."+p.name+".latency_p95_ms"] = s.p95
		}
	}
}

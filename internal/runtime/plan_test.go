package runtime_test

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"

	"unigpu/internal/graph"
	"unigpu/internal/models"
	"unigpu/internal/ops"
	"unigpu/internal/runtime"
	"unigpu/internal/sim"
	"unigpu/internal/tensor"
)

// executeReference is a frozen copy of the seed serial executor (pre-plan,
// pre-arena): functional Execute with fresh allocations per node. The
// pooled and concurrent runtimes must stay bit-identical to it.
func executeReference(g *graph.Graph, feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	refs := map[*graph.Node]int{}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			refs[in]++
		}
	}
	for _, o := range g.Outputs {
		refs[o]++
	}
	values := map[*graph.Node]*tensor.Tensor{}
	for _, n := range g.Nodes {
		switch {
		case n.IsConstant():
			values[n] = n.Value
		case n.IsInput():
			t, ok := feeds[n.Name]
			if !ok {
				return nil, fmt.Errorf("input %q not fed", n.Name)
			}
			values[n] = t
		default:
			ins := make([]*tensor.Tensor, len(n.Inputs))
			for i, in := range n.Inputs {
				ins[i] = values[in]
			}
			values[n] = n.Op.Execute(ins)
			for _, in := range n.Inputs {
				if in.Op == nil {
					continue
				}
				refs[in]--
				if refs[in] == 0 {
					delete(values, in)
				}
			}
		}
	}
	outs := make([]*tensor.Tensor, len(g.Outputs))
	for i, o := range g.Outputs {
		outs[i] = values[o]
	}
	return outs, nil
}

func tensorsEqual(t *testing.T, name string, got, want []*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", name, len(got), len(want))
	}
	for k := range want {
		if !got[k].Shape().Equal(want[k].Shape()) {
			t.Fatalf("%s output %d: shape %v, want %v", name, k, got[k].Shape(), want[k].Shape())
		}
		gd, wd := got[k].Data(), want[k].Data()
		for i := range wd {
			if gd[i] != wd[i] { // bit-identical, not approximately equal
				t.Fatalf("%s output %d differs at %d: %v != %v", name, k, i, gd[i], wd[i])
			}
		}
	}
}

// goldenModelCases builds the full model zoo at reduced input sizes.
// Under the race detector the two heaviest models are dropped (see
// race_on_test.go); the complete zoo always runs in the race-free suite.
func goldenModelCases() map[string]int {
	sizes := map[string]int{}
	for _, name := range models.Names() {
		switch name {
		case "SSD_MobileNet1.0", "SSD_ResNet50":
			sizes[name] = 128
		case "Yolov3":
			sizes[name] = 96
		default:
			sizes[name] = 64
		}
	}
	if raceEnabled {
		// Keep one branchy classifier, one depthwise classifier and one
		// detection pipeline; shrink the detection input. Full-zoo
		// bit-identity runs in the race-free tier-1 suite.
		delete(sizes, "ResNet50_v1")
		delete(sizes, "SSD_ResNet50")
		delete(sizes, "Yolov3")
		sizes["SSD_MobileNet1.0"] = 96
	}
	return sizes
}

// TestGoldenAllModels runs every model in the zoo through the pooled
// serial session AND the concurrent scheduler and requires both to be
// bit-identical to the frozen reference executor — arena reuse and
// out-of-order dispatch must never change a single ULP.
func TestGoldenAllModels(t *testing.T) {
	for name, size := range goldenModelCases() {
		t.Run(name, func(t *testing.T) {
			m := models.Build(name, size, false)
			graph.Optimize(m.Graph)
			graph.PlaceDevices(m.Graph, graph.PlacementOptions{})
			feed := tensor.New(1, 3, size, size)
			feed.FillRandom(7)
			feeds := map[string]*tensor.Tensor{"data": feed}

			want, err := executeReference(m.Graph, feeds)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := runtime.NewPlan(m.Graph)
			if err != nil {
				t.Fatal(err)
			}

			serial := plan.NewSession()
			for run := 0; run < 2; run++ { // second run reuses the arena
				got, err := serial.Run(feeds)
				if err != nil {
					t.Fatal(err)
				}
				tensorsEqual(t, fmt.Sprintf("serial run %d", run), got, want)
			}

			conc := plan.NewSessionWith(runtime.SessionOptions{Workers: 4, GPUStreams: 4})
			for run := 0; run < 2; run++ {
				got, err := conc.Run(feeds)
				if err != nil {
					t.Fatal(err)
				}
				tensorsEqual(t, fmt.Sprintf("concurrent run %d", run), got, want)
			}
		})
	}
}

// TestGoldenDetectionWithFallback covers the heterogeneous schedule:
// box_nms/multibox_detection on the CPU with device_copy queue crossings,
// GPU nodes overlapping CPU ones under the concurrent scheduler.
func TestGoldenDetectionWithFallback(t *testing.T) {
	size := 128
	if raceEnabled {
		size = 96
	}
	m := models.Build("SSD_MobileNet1.0", size, false)
	graph.Optimize(m.Graph)
	copies := graph.PlaceDevices(m.Graph, graph.PlacementOptions{
		FallbackKinds: map[string]bool{"box_nms": true, "multibox_detection": true},
	})
	if copies == 0 {
		t.Fatal("expected device_copy nodes from the fallback placement")
	}
	feed := tensor.New(1, 3, size, size)
	feed.FillRandom(3)
	feeds := map[string]*tensor.Tensor{"data": feed}

	want, err := executeReference(m.Graph, feeds)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := runtime.NewPlan(m.Graph)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.NewSessionWith(runtime.SessionOptions{Workers: 3, GPUStreams: 2}).Run(feeds)
	if err != nil {
		t.Fatal(err)
	}
	tensorsEqual(t, "fallback concurrent", got, want)
}

// TestSharedPlanConcurrentSessions exercises many goroutines running
// private sessions off one shared Plan simultaneously (run with -race).
// A cheap branchy graph keeps every iteration in the scheduler, not the
// conv kernels, so the race detector sees many full Run interleavings.
func TestSharedPlanConcurrentSessions(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := executeReference(g, feeds)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			// Mix serial and concurrent sessions over the same plan.
			s := plan.NewSessionWith(runtime.SessionOptions{Workers: 1 + c%3, GPUStreams: 1 + c%2})
			for run := 0; run < 50; run++ {
				got, err := s.Run(feeds)
				if err != nil {
					errs <- fmt.Errorf("client %d run %d: %v", c, run, err)
					return
				}
				for i, v := range want[0].Data() {
					if got[0].Data()[i] != v {
						errs <- fmt.Errorf("client %d run %d: output differs at %d", c, run, i)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// buildSerialOpsGraph is a branchy all-Into graph (conv-free so each Run is
// cheap): every operator on the path implements ExecuteInto and runs
// without goroutines, making the whole Run provably allocation-free.
func buildSerialOpsGraph() (*graph.Graph, map[string]*tensor.Tensor) {
	g := graph.New()
	in := g.Input("data", 1, 8, 8, 8)
	a := g.Apply("a", &graph.ActivationOp{Act: ops.ActReLU}, in)
	l := g.Apply("l", &graph.SigmoidOp{}, a)
	r := g.Apply("r", &graph.ActivationOp{Act: ops.ActLeakyReLU}, a)
	j := g.Apply("j", &graph.AddOp{}, l, r)
	cat := g.Apply("cat", &graph.ConcatOp{}, j, a)
	p := g.Apply("p", &graph.PoolOp{PoolKind: ops.MaxPool, Kernel: 2, Stride: 2}, cat)
	gp := g.Apply("gp", &graph.GlobalPoolOp{}, p)
	f := g.Apply("f", &graph.FlattenOp{}, gp)
	sm := g.Apply("sm", &graph.SoftmaxOp{}, f)
	g.SetOutputs(sm)
	feed := tensor.New(1, 8, 8, 8)
	feed.FillRandom(21)
	return g, map[string]*tensor.Tensor{"data": feed}
}

// TestSessionZeroAllocs is the tentpole acceptance criterion: a serial
// session's steady-state Run performs ZERO heap allocations — every
// intermediate lives in the preallocated arena.
func TestSessionZeroAllocs(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.NewSession()
	if _, err := s.Run(feeds); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Run(feeds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Session.Run allocated %v times per run, want 0", allocs)
	}
}

// The per-request garbage bound of a steady-state serial Session.Run on a
// SqueezeNet@64 plan. Its GEMM convs and pools keep their per-call and
// parallel-loop state in pools, so a run allocates close to nothing; the
// bound leaves room for goroutine bookkeeping that grows with core count.
const (
	zooRunMaxAllocs = 110
	zooRunMaxBytes  = 4 << 10
)

func squeezeNet64Session(tb testing.TB) (*runtime.Session, map[string]*tensor.Tensor) {
	tb.Helper()
	plan, err := runtime.NewPlan(buildZooGraph("SqueezeNet1.0", 64, "fused"))
	if err != nil {
		tb.Fatal(err)
	}
	feed := tensor.New(1, 3, 64, 64)
	feed.FillRandom(5)
	feeds := map[string]*tensor.Tensor{"data": feed}
	s := plan.NewSession()
	if _, err := s.Run(feeds); err != nil { // warm-up
		tb.Fatal(err)
	}
	return s, feeds
}

// TestZooSessionRunGarbage guards the per-request garbage of a zoo plan:
// at most zooRunMaxAllocs allocations and zooRunMaxBytes bytes per Run.
func TestZooSessionRunGarbage(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a random share of Puts, so the garbage is not the production figure")
	}
	s, feeds := squeezeNet64Session(t)
	// MemStats rather than testing.AllocsPerRun, which pins GOMAXPROCS
	// to 1 and so hides the allocations that only concurrent helpers
	// cause.
	const runs = 20
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := s.Run(feeds); err != nil {
			t.Fatal(err)
		}
	}
	goruntime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("SqueezeNet@64 Session.Run: %.0f allocs, %.0f B per run", allocs, bytes)
	if allocs > zooRunMaxAllocs {
		t.Errorf("Session.Run allocated %.0f times per run, want <= %d", allocs, zooRunMaxAllocs)
	}
	if bytes > zooRunMaxBytes {
		t.Errorf("Session.Run allocated %.0f B per run, want <= %d", bytes, zooRunMaxBytes)
	}
}

// BenchmarkZooSessionRun is a steady-state serial Session.Run of a
// SqueezeNet@64 plan; run with -benchmem to see its per-request garbage.
func BenchmarkZooSessionRun(b *testing.B) {
	s, feeds := squeezeNet64Session(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(feeds); err != nil {
			b.Fatal(err)
		}
	}
}

// TestProfileOptIn: profiling is off by default (keeping Run
// allocation-free) and collected per node when requested.
func TestProfileOptIn(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.NewSession()
	if _, err := s.Run(feeds); err != nil {
		t.Fatal(err)
	}
	if s.Profile() != nil {
		t.Fatal("default session must not collect profiles")
	}
	ps := plan.NewSessionWith(runtime.SessionOptions{Profile: true})
	if _, err := ps.Run(feeds); err != nil {
		t.Fatal(err)
	}
	prof := ps.Profile()
	if len(prof) != plan.NumNodes() {
		t.Fatalf("profile has %d entries, want %d", len(prof), plan.NumNodes())
	}
	if prof[0].Kind == "" || prof[0].OutBytes == 0 {
		t.Fatalf("profile entry not populated: %+v", prof[0])
	}
}

// TestArenaReuseAcrossRuns: intermediates occupy the same arena storage on
// every Run (no per-run allocation), and slot reuse makes the arena
// strictly smaller than the sum of all intermediates.
func TestArenaReuseAcrossRuns(t *testing.T) {
	g, feeds := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ArenaBytes() >= plan.IntermediateBytes() {
		t.Fatalf("arena %d B should be smaller than total intermediates %d B",
			plan.ArenaBytes(), plan.IntermediateBytes())
	}
	if plan.ArenaBytes() < plan.PeakLiveBytes() {
		t.Fatalf("arena %d B cannot be below the liveness peak %d B",
			plan.ArenaBytes(), plan.PeakLiveBytes())
	}
	s := plan.NewSession()
	out1, err := s.Run(feeds)
	if err != nil {
		t.Fatal(err)
	}
	d1 := &out1[0].Data()[0]
	out2, err := s.Run(feeds)
	if err != nil {
		t.Fatal(err)
	}
	if &out2[0].Data()[0] != d1 {
		t.Fatal("output must reuse the same arena storage across Runs")
	}
}

// TestPlanMatchesExecuteSemantics: the wrapper keeps the legacy error
// contract (all inputs must be fed, shapes checked).
func TestPlanMatchesExecuteSemantics(t *testing.T) {
	g, _ := buildSerialOpsGraph()
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.NewSession()
	if _, err := s.Run(map[string]*tensor.Tensor{}); err == nil {
		t.Fatal("missing feed must error")
	}
	if _, err := s.Run(map[string]*tensor.Tensor{"data": tensor.New(1, 2)}); err == nil {
		t.Fatal("wrong feed shape must error")
	}
	// A failed Run leaves the session reusable.
	_, feeds := buildSerialOpsGraph()
	if _, err := s.Run(feeds); err != nil {
		t.Fatalf("session must recover after a failed Run: %v", err)
	}
}

// BenchmarkSessionRun measures the pooled serial hot path at every
// storage dtype on the serial-ops graph; the benchmem acceptance
// criterion is 0 allocs/op for each dtype path — fp16 carriers, cast
// nodes and mixed-width arena slots must stay as allocation-free as the
// fp32 path. (Convolution kernels parallelize internally with goroutine
// fan-out, so their wall clock per dtype is tracked separately in
// BenchmarkConvKernels.)
func BenchmarkSessionRun(b *testing.B) {
	for _, mode := range []graph.QuantMode{
		graph.QuantOff, graph.QuantFP16, graph.QuantINT8, graph.QuantAuto,
	} {
		b.Run("dtype="+mode.String(), func(b *testing.B) {
			g, feeds := buildSerialOpsGraph()
			if _, err := graph.QuantizeGraph(g,
				graph.QuantizeOptions{Mode: mode, Device: sim.IntelHD505}); err != nil {
				b.Fatal(err)
			}
			plan, err := runtime.NewPlan(g)
			if err != nil {
				b.Fatal(err)
			}
			s := plan.NewSession()
			if _, err := s.Run(feeds); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(feeds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecuteLegacy is the same graph through the one-shot Execute
// wrapper (plan + session per call), bounding the compile-once win.
func BenchmarkExecuteLegacy(b *testing.B) {
	g, feeds := buildSerialOpsGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runtime.Execute(g, feeds); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkSqueezeNet(b *testing.B, opts runtime.SessionOptions) {
	m := models.Build("SqueezeNet1.0", 64, false)
	graph.Optimize(m.Graph)
	graph.PlaceDevices(m.Graph, graph.PlacementOptions{})
	plan, err := runtime.NewPlan(m.Graph)
	if err != nil {
		b.Fatal(err)
	}
	s := plan.NewSessionWith(opts)
	feed := tensor.New(1, 3, 64, 64)
	feed.FillRandom(2)
	feeds := map[string]*tensor.Tensor{"data": feed}
	if _, err := s.Run(feeds); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(feeds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionSqueezeNetSerial vs ...Concurrent: the branchy Fire
// modules admit node-level parallelism; on a multi-core host the
// concurrent variant shows the dispatch win (on a single-core CI box the
// two are expected to tie).
func BenchmarkSessionSqueezeNetSerial(b *testing.B) {
	benchmarkSqueezeNet(b, runtime.SessionOptions{})
}

func BenchmarkSessionSqueezeNetConcurrent(b *testing.B) {
	benchmarkSqueezeNet(b, runtime.SessionOptions{Workers: 4, GPUStreams: 4})
}

package main

import (
	"context"
	"fmt"
	"time"

	"unigpu"
)

// workload is one fixed serving scenario. Every parameter that shapes the
// numbers is pinned here; only the input tensors and the arrival schedule
// come from the seed.
type workload struct {
	Name  string
	Model string
	Size  int
	DType string // "fp32" or "fp16"

	// Closed loop: Clients callers each wait for a reply before sending
	// again. Open loop (Rate > 0): Poisson arrivals at Rate per second.
	Clients int
	Rate    float64

	// Batch enables the pool's batching front-end; nil serves per request.
	Batch *unigpu.BatchOptions
	// Fleet serves on Engine.NewFleet over the paper's three platforms
	// and runs the fault script: kill the favoured replica at 1/3 of the
	// measured window, HealNow it at 2/3.
	Fleet bool

	// Segments > 1 reports p50 and p95 as medians over that many
	// consecutive slices of the measured requests, each with at least
	// minCompleted requests.
	Segments int

	// LimitMs is the latency limit a request must meet to count towards
	// goodput_ratio.
	LimitMs float64
	// Tol is the largest relative error an fp32 output may show against
	// the unoptimized reference. Recorded from HEAD measurements; it may
	// be tightened, never loosened.
	Tol float64
	// SetupReps is how many times a run sets the system up from scratch;
	// setup_s is their median.
	SetupReps int
}

func (w *workload) open() bool { return w.Rate > 0 }

// minRequests is the fewest requests a measured phase must complete.
func (w *workload) minRequests() int { return minCompleted * max(1, w.Segments) }

func (w *workload) loop() string {
	if w.open() {
		return fmt.Sprintf("open loop, Poisson %.0f req/s", w.Rate)
	}
	return fmt.Sprintf("closed loop, %d client(s)", w.Clients)
}

var workloads = []*workload{
	{
		Name: "squeezenet64-fp32", Model: "SqueezeNet1.0", Size: 64, DType: "fp32",
		Clients: 1, Segments: 3, LimitMs: 100, Tol: 1e-5, SetupReps: 9,
	},
	// Runnable by name but not in BENCHMARK.json: the fp16 path's top-1
	// class disagrees with the fp32 reference on some inputs (1 of 512
	// inputs over seeds 1-64 at the time it was defined), so runs on those
	// seeds fail their check.
	{
		Name: "squeezenet64-fp16", Model: "SqueezeNet1.0", Size: 64, DType: "fp16",
		Clients: 1, Segments: 3, LimitMs: 150, SetupReps: 5,
	},
	{
		Name: "mobilenet32-batched-open", Model: "MobileNet1.0", Size: 32, DType: "fp32",
		Rate: 30, Batch: &unigpu.BatchOptions{MaxBatch: 8, MaxLinger: 2 * time.Millisecond},
		Segments: 5, LimitMs: 100, Tol: 1e-4, SetupReps: 3,
	},
	// One closed-loop client: on a 2-core host, an open loop or a second
	// client made this workload's latency depend on timing-dependent
	// routing between replicas whose plans differ, and its p50 and
	// throughput spread too widely from run to run to gate on.
	{
		Name: "ssd64-fleet-failover", Model: "SSD_MobileNet1.0", Size: 64, DType: "fp32",
		Clients: 1, Fleet: true, LimitMs: 250, Tol: 1e-3, SetupReps: 3,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// server is the serving edge a workload drives: a SessionPool or a Fleet.
type server interface {
	Run(ctx context.Context, in *unigpu.Tensor) (*unigpu.Tensor, error)
	Close()
}

// system is one set-up instance of a workload's serving stack.
type system struct {
	srv   server
	fleet *unigpu.Fleet // nil for pools
	// cm is the model compiled for AWS DeepLens (the fleet's replica 0).
	cm *unigpu.CompiledModel

	setup     time.Duration // NewEngine to the first inference's return
	warmBatch time.Duration // WarmBatches, part of setup
	first     *unigpu.Tensor
	favoured  int // fleet: the replica the router prefers (lowest oracle estimate)
}

// setUp builds the workload's serving stack from a fresh engine (cold
// tuning caches, no tuning DB) and serves one request on in. The returned
// setup time ends when that first inference returns; the caller checks it.
// onStage(name) marks the start of a stage and returns its end.
func setUp(ctx context.Context, w *workload, in *unigpu.Tensor, onStage func(name string) func()) (*system, error) {
	sys := &system{}
	t0 := time.Now()
	eng := unigpu.NewEngine()
	copts := unigpu.CompileOptions{InputSize: w.Size, DType: w.DType}
	if w.Fleet {
		end := onStage("fleet.open")
		f, err := eng.NewFleet(w.Model, copts, unigpu.FleetOptions{
			// Heals are scripted; routing follows the cost oracle exactly,
			// so placement reproduces run to run.
			Heal:   unigpu.HealPolicy{ProbeAfter: -1},
			Router: unigpu.RouterOptions{EWMAAlpha: -1},
		})
		end()
		if err != nil {
			return nil, fmt.Errorf("new fleet: %w", err)
		}
		sys.srv, sys.fleet, sys.cm = f, f, f.Model(0)
		for i := 1; i < f.Len(); i++ {
			if f.Model(i).PredictedLatencyMs < f.Model(sys.favoured).PredictedLatencyMs {
				sys.favoured = i
			}
		}
	} else {
		end := onStage("compile")
		cm, err := eng.Compile(w.Model, unigpu.DeepLens, copts)
		end()
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		end = onStage("pool.open")
		pool, err := cm.NewSessionPool(unigpu.PoolOptions{Sessions: 2, QueueDepth: 8, Batch: w.Batch})
		end()
		if err != nil {
			return nil, fmt.Errorf("session pool: %w", err)
		}
		sys.srv, sys.cm = pool, cm
		if w.Batch != nil {
			end = onStage("runtime.batch_plans")
			tb := time.Now()
			sizes := make([]int, 0, w.Batch.MaxBatch)
			for n := 2; n <= w.Batch.MaxBatch; n++ {
				sizes = append(sizes, n)
			}
			err := pool.WarmBatches(sizes...)
			sys.warmBatch = time.Since(tb)
			end()
			if err != nil {
				pool.Close()
				return nil, fmt.Errorf("warm batches: %w", err)
			}
		}
	}
	end := onStage("first_inference")
	out, err := sys.srv.Run(ctx, in)
	end()
	sys.setup = time.Since(t0)
	if err != nil {
		sys.srv.Close()
		return nil, fmt.Errorf("first inference: %w", err)
	}
	sys.first = out
	return sys, nil
}

// arenaBytes is the per-request plan's arena: the memory a session pins.
func (s *system) arenaBytes() (int, error) {
	p, err := s.cm.Plan()
	if err != nil {
		return 0, err
	}
	return p.ArenaBytes(), nil
}

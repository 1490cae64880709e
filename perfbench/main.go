// Command perfbench is the repository benchmark: it compiles and serves
// zoo models through the public unigpu API, checks every output against an
// unoptimized reference, and prints the end-to-end metrics (--trace 0) or
// the per-layer metrics of a separate traced run (--trace 1). The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Usage, from the repository root (run.py builds the program, then runs it):
//
//	python3 perfbench/run.py --workload squeezenet64-fp32 --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names and units. moves and on record which end-to-end metric a
// per-layer metric should move, and on which workloads it does real work.
type metricDef struct {
	name, unit string
	moves, on  string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "", "median of the run's set-ups: NewEngine to the first correct inference"},
	{"latency_p50_ms", "ms", "", "per request, closed loop from the call, open loop from the due time; median over the workload's segments"},
	{"latency_p95_ms", "ms", "", "same samples, at least 200 per segment"},
	{"throughput_rps", "req/s", "", "correct completions per second of the measured phase"},
	{"goodput_ratio", "ratio", "", "share of requests sent that were correct within the workload's limit"},
	{"arena_kib", "KiB", "", "Plan.ArenaBytes of the per-request plan"},
	{"peak_rss_mib", "MiB", "", "process high-water RSS after set-up and serving, before the extra set-ups"},
}

var perLayer = []metricDef{
	{"models.build_ms", "ms", "setup_s", "all; most on ssd64-fleet-failover (3 builds)"},
	{"graph.optimize_ms", "ms", "setup_s", "all"},
	{"graph.nodes_removed", "count", "latency_p50_ms", "all"},
	{"graph.quantize_ms", "ms", "setup_s", "squeezenet64-fp16 only (run by name; 0 on the gated workloads)"},
	{"graph.casts_inserted", "count", "setup_s", "squeezenet64-fp16 only (run by name; 0 on the gated workloads)"},
	{"graph.select_ms", "ms", "setup_s", "all"},
	{"graph.kernels.gemm", "count", "latency_p50_ms", "all"},
	{"graph.kernels.direct", "count", "latency_p50_ms", "all"},
	{"graph.kernels.depthwise", "count", "latency_p50_ms", "all"},
	{"graph.kernels.winograd", "count", "latency_p50_ms", "all (0 unless AllowWinograd)"},
	{"graph.place_ms", "ms", "setup_s", "all"},
	{"graph.copies", "count", "setup_s", "all"},
	{"bench.tune_ms", "ms", "setup_s (the dominant term)", "all"},
	{"bench.conv_workloads", "count", "setup_s", "all"},
	{"bench.unique_workloads", "count", "setup_s", "all"},
	{"autotvm.trials", "count", "setup_s", "all"},
	{"bench.price_ms", "ms", "setup_s", "all"},
	{"sim_latency_ms", "ms", "paper reproduction; must not move under host-only changes", "all"},
	{"sim.conv_ms", "ms", "sim_latency_ms", "all"},
	{"sim.transform_ms", "ms", "sim_latency_ms", "all"},
	{"sim.vision_ms", "ms", "sim_latency_ms", "ssd64-fleet-failover"},
	{"sim.other_ms", "ms", "sim_latency_ms", "all"},
	{"runtime.plan_ms", "ms", "setup_s", "all"},
	{"runtime.plan_nodes", "count", "latency_p50_ms", "all"},
	{"runtime.arena_kib", "KiB", "arena_kib", "all"},
	{"runtime.intermediate_kib", "KiB", "arena_kib", "all"},
	{"runtime.batch_plans_ms", "ms", "setup_s", "mobilenet32-batched-open"},
	{"runtime.session_run_ms", "ms", "latency_p50_ms, throughput_rps", "closed loops: squeezenet64-fp32, ssd64-fleet-failover"},
	{"runtime.dispatch_ms", "ms", "latency_p50_ms", "all; most on mobilenet32-batched-open"},
	{"runtime.allocs_per_run", "count", "latency_p50_ms", "all"},
	{"ops.conv_ms", "ms", "latency_p50_ms, latency_p95_ms", "all; the fp16 conv copies on squeezenet64-fp16"},
	{"ops.conv_gflops", "GFLOP/s", "latency_p50_ms", "all"},
	{"ops.pool_ms", "ms", "latency_p50_ms", "squeezenet64-fp32 (and -fp16)"},
	{"ops.concat_ms", "ms", "latency_p50_ms", "squeezenet64-fp32 (and -fp16)"},
	{"ops.cast_ms", "ms", "latency_p50_ms", "squeezenet64-fp16 only"},
	{"ops.dense_ms", "ms", "latency_p50_ms", "mobilenet32-batched-open"},
	{"ops.softmax_ms", "ms", "latency_p50_ms", "classifiers"},
	{"ops.elementwise_ms", "ms", "latency_p50_ms", "all"},
	{"vision.multibox_ms", "ms", "latency_p50_ms", "ssd64-fleet-failover"},
	{"vision.reshape_ms", "ms", "latency_p50_ms", "ssd64-fleet-failover"},
	{"runtime.pool.queue_wait_ms_p95", "ms", "latency_p95_ms", "requests that found every session busy; 0 when none waited (1-client loops), and the batching path records none, so 0 on mobilenet32-batched-open"},
	{"runtime.pool.shed", "count", "goodput_ratio", "mobilenet32-batched-open"},
	{"runtime.batch.size_mean", "count", "throughput_rps", "mobilenet32-batched-open"},
	{"runtime.batch.linger_ms_p50", "ms", "latency_p95_ms", "mobilenet32-batched-open"},
	{"runtime.batch.degraded", "count", "goodput_ratio", "mobilenet32-batched-open"},
	{"runtime.fleet.failovers", "count", "latency_p95_ms, error_ratio", "ssd64-fleet-failover"},
	{"runtime.fleet.quarantines", "count", "goodput_ratio", "ssd64-fleet-failover"},
	{"runtime.fleet.heals", "count", "goodput_ratio", "ssd64-fleet-failover"},
	{"runtime.fleet.served_share.aws-deeplens-0", "ratio", "latency_p95_ms", "ssd64-fleet-failover"},
	{"runtime.fleet.served_share.acer-aisage-1", "ratio", "latency_p95_ms", "ssd64-fleet-failover"},
	{"runtime.fleet.served_share.nvidia-jetson-nano-2", "ratio", "latency_p95_ms", "ssd64-fleet-failover"},
	{"runtime.fleet.phase.healthy.latency_p95_ms", "ms", "latency_p95_ms", "ssd64-fleet-failover"},
	{"runtime.fleet.phase.lost.latency_p95_ms", "ms", "latency_p95_ms", "ssd64-fleet-failover"},
	{"runtime.fleet.phase.ramp.latency_p95_ms", "ms", "latency_p95_ms", "ssd64-fleet-failover"},
	{"loadgen.lag_p95_ms", "ms", "validity of open-loop numbers", "mobilenet32-batched-open"},
	{"loadgen.sent", "count", "validity of the run", "all"},
	{"loadgen.succeeded", "count", "throughput_rps", "all"},
	{"loadgen.failed", "count", "goodput_ratio", "all"},
	{"loadgen.phase.healthy.sent", "count", "validity of the run", "ssd64-fleet-failover"},
	{"loadgen.phase.healthy.succeeded", "count", "goodput_ratio", "ssd64-fleet-failover"},
	{"loadgen.phase.healthy.failed", "count", "goodput_ratio", "ssd64-fleet-failover"},
	{"loadgen.phase.lost.sent", "count", "validity of the run", "ssd64-fleet-failover"},
	{"loadgen.phase.lost.succeeded", "count", "goodput_ratio", "ssd64-fleet-failover"},
	{"loadgen.phase.lost.failed", "count", "goodput_ratio", "ssd64-fleet-failover"},
	{"loadgen.phase.ramp.sent", "count", "validity of the run", "ssd64-fleet-failover"},
	{"loadgen.phase.ramp.succeeded", "count", "goodput_ratio", "ssd64-fleet-failover"},
	{"loadgen.phase.ramp.failed", "count", "goodput_ratio", "ssd64-fleet-failover"},
	{"error_ratio", "ratio", "goodput_ratio", "all; 0 at HEAD"},
	{"obs.trace_overhead_ratio", "ratio", "validity of the traced run", "all"},
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	values            metrics
	info              metrics // printed for the reader, not part of the JSON metrics
}

// fail marks the run incorrect and says why.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed for the inputs and the arrival schedule")
	seconds := flag.Int("seconds", 30, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result and trace files")
	flag.Parse()

	goruntime.GOMAXPROCS(goruntime.NumCPU())
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	h := hostInfo()
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s binary=%.12s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Binary)
	fmt.Printf("workload: %s  %s@%d %s, %s, limit %.0f ms, seed %d, %ds\n",
		w.Name, w.Model, w.Size, w.DType, w.loop(), w.LimitMs, *seed, *seconds)

	ctx := context.Background()
	dur := time.Duration(*seconds) * time.Second
	var res *result
	defs := endToEnd
	tracePath := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d.trace.json", w.Name, *seed))
	if *trace == 1 {
		defs = perLayer
		res, err = runTraced(ctx, w, *seed, dur, tracePath)
	} else {
		res, err = runEndToEnd(ctx, w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	out := map[string]any{}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail("metric %s is %v", d.name, v)
			v = 0
		}
		if !ok && *trace == 0 {
			res.fail("metric %s was not measured", d.name)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	printTable(w, defs, res)
	line, err := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	info := map[string]any{}
	for k, v := range res.info {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			info[k] = fmt.Sprint(v) // JSON has no NaN or Inf
		} else {
			info[k] = v
		}
	}
	record := map[string]any{
		"workload": w.Name, "model": w.Model, "size": w.Size, "dtype": w.DType, "loop": w.loop(),
		"limit_ms": w.LimitMs, "tolerance": w.Tol, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host": h, "result": json.RawMessage(line), "info": info,
	}
	if err := writeJSON(filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, *seed, *trace)), record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printTable writes the human-readable report: every metric by name, with
// its unit and (per layer) what it should move.
func printTable(w *workload, defs []metricDef, res *result) {
	fmt.Printf("%-46s %14s  %-8s %s\n", "metric", "value", "unit", "moves / definition")
	for _, d := range defs {
		note := d.on
		if d.moves != "" {
			note = d.moves + "  [" + d.on + "]"
		}
		fmt.Printf("%-46s %14.6g  %-8s %s\n", d.name, res.values[d.name], d.unit, note)
	}
	for _, k := range sortedKeys(res.info) {
		fmt.Printf("%-46s %14.6g  (info)\n", k, res.info[k])
	}
	fmt.Printf("attempted %d, failed %d (failures, sheds and wrong outputs), correct %v\n",
		res.attempted, res.failed, res.correct)
}

// host records where a result was measured.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// Binary is the SHA-256 of the benchmark executable: it still tells
	// builds apart where the source is not a git checkout and Commit
	// reads "unknown".
	Binary string `json:"binary_sha256"`
}

func hostInfo() host {
	h := host{CPU: "unknown", NProc: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion: goruntime.Version(), Commit: "unknown", Binary: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	if exe, err := os.Executable(); err == nil {
		if b, err := os.ReadFile(exe); err == nil {
			h.Binary = fmt.Sprintf("%x", sha256.Sum256(b))
		}
	}
	return h
}

// cpuTicks reads the machine's CPU time from /proc/stat: the ticks a
// hypervisor stole from this guest, and all ticks. A run whose steal
// share is high was measured on a contended host. Both read 0 where the
// file is missing or unreadable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user and nice.
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMiB is the process's high-water resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

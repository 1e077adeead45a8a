// Command perfbench is the repository benchmark: one command that runs a
// named workload against paradet from a single process, checks that
// every output is correct, and prints every metric with its unit. See
// README.md in this directory for the workloads, the metrics and how
// each per-layer figure maps onto an end-to-end one.
//
//	bash perfbench/run.sh --workload sweep_cold --seed 1 --seconds 50 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With --trace 0 the metrics are the end-to-end ones, measured with no
// spans recorded; with --trace 1 they are the per-layer ones, measured
// with spans, which are written to <workdir>/spans/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef declares one reported metric.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a user of paradet sees. Every workload
// reports all of them; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cells_per_s", "1/s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"read_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"fig7_slowdown_err_pp", "pp"},
	{"fig8_delay_err_pct", "%"},
}

// perLayer lists the traced run's metrics, named <layer>.<quantity>
// after the repository's packages. A layer a workload does not reach
// reports 0.
var perLayer = []metricDef{
	{"campaign.busy_frac", "frac"},
	{"campaign.straggler_s", "s"},
	{"campaign.sims", "count"},
	{"campaign.expand_ms", "ms"},
	{"paradet.unprotected_ns_per_instr", "ns/instr"},
	{"paradet.ckpt_only_ns_per_instr", "ns/instr"},
	{"paradet.protected_ns_per_instr", "ns/instr"},
	{"paradet.fault_us_per_cell", "us/cell"},
	{"paradet.host_ns_per_cycle", "ns/cycle"},
	{"paradet.alloc_bytes_per_instr", "B/instr"},
	{"core.detector_ns_per_instr", "ns/instr"},
	{"inorder.checkers_ns_per_instr", "ns/instr"},
	{"isa.oracle_ns_per_instr", "ns/instr"},
	{"ooo.self_ns_per_instr", "ns/instr"},
	{"mem.access_ns", "ns"},
	{"ooo.cycles", "count"},
	{"ooo.instrs", "count"},
	{"ooo.mispredicts", "count"},
	{"core.entries_logged", "count"},
	{"core.segments_checked", "count"},
	{"core.checkpoints", "count"},
	{"core.logfull_stall_cycles", "count"},
	{"inorder.checker_busy_frac", "frac"},
	{"fault.detected", "count"},
	{"fault.masked", "count"},
	{"fault.over_detected", "count"},
	{"fault.silent", "count"},
	{"resultstore.put_us", "us"},
	{"resultstore.get_loose_us", "us"},
	{"resultstore.compact_ms", "ms"},
	{"resultstore.get_segment_us", "us"},
	{"serve.handler_ms.cell", "ms"},
	{"serve.target_us_per_lookup", "us"},
	{"serve.lookups_per_req", "count"},
	{"serve.transport_ms", "ms"},
	{"bench.read_p99_ms", "ms"},
	{"bench.write_p90_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// options are the command-line inputs of one run.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Workdir  string
}

// outcome is what a workload run hands back: its checks and raw values.
type outcome struct {
	Attempted int
	Failures  []string
	Values    map[string]float64
	Notes     []string // human-readable context lines
}

func (o *outcome) fail(format string, args ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// runners maps each workload name to its runner.
var runners = map[string]func(context.Context, options) (*outcome, error){
	"sweep_cold": runSweepCold,
	"fault_grid": runFaultGrid,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload to run: sweep_cold or fault_grid")
	flag.Int64Var(&o.Seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&o.Seconds, "seconds", 50, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.StringVar(&o.Workdir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for temporary stores and span files")
	flag.Parse()
	o.Trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	runner, ok := runners[o.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	runDir := filepath.Join(o.Workdir, fmt.Sprintf("run-%s-%d-%d", o.Workload, o.Seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	o.Workdir = runDir

	out, err := runner(context.Background(), o)
	if err != nil {
		return err
	}
	out.Values["peak_rss_mb"] = peakRSSMB()

	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := out.Values[d.Name]
		if !ok && !o.Trace {
			out.fail("end-to-end metric %s was not measured", d.Name)
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}

	fmt.Printf("go=%s nproc=%d gomaxprocs=%d workload=%s seed=%d seconds=%g trace=%t\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.Workload, o.Seed, o.Seconds, o.Trace)
	for _, n := range out.Notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, metrics[n]["value"], metrics[n]["unit"])
	}
	for _, f := range out.Failures {
		fmt.Println("FAIL:", f)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(out.Failures) == 0,
		"attempted": out.Attempted,
		"failed":    len(out.Failures),
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runContext is recorded with every span file.
func runContext(o options, overheadPct float64) map[string]any {
	return map[string]any{
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"workload": o.Workload, "seed": o.Seed, "seconds": o.Seconds,
		"trace_overhead_pct": overheadPct, "written": time.Now().UTC().Format(time.RFC3339),
	}
}

// spanPath is where a traced run writes its spans: outside the run's
// own directory, which is removed when the run ends.
func spanPath(o options) string {
	return filepath.Join(filepath.Dir(o.Workdir), "spans", fmt.Sprintf("%s-seed%d.json", o.Workload, o.Seed))
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

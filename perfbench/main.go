// Command perfbench is the repository's benchmark. It runs one workload
// through the library's public entry points, checks every output, and
// prints the end-to-end metrics (--trace 0) or, from a second run of
// the same inputs with the flight recorder and a CPU profile on, the
// per-layer metrics (--trace 1). The last line of standard output is a
// JSON object {correct, attempted, failed, metrics}. See README.md.
//
//	go run . --workload moe-step --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's outcome.
type report struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
	problems          []string
}

func newReport() *report { return &report{correct: true, metrics: make(map[string]metric)} }

// set records a metric; its unit comes from the metric tables.
func (r *report) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric " + name + " is in no table")
	}
	r.metrics[name] = metric{v, u}
}

// fail records a failed check; the run is then not correct.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// endToEnd are the metrics of a --trace 0 run, on every workload.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"host_s", "s"}, {"host_alloc_MB", "MB"}, {"host_allocs_k", "k"},
	{"peak_rss_MB", "MB"}, {"step_virt_ms", "ms"}, {"busbw_GBps", "GB/s"},
	{"coll_lat_p50_us", "us"}, {"coll_lat_p99_us", "us"},
	{"job_sojourn_p50_ms", "ms"}, {"job_sojourn_p90_ms", "ms"},
}

// perLayer are the metrics of a --trace 1 run, on every workload. A
// metric that does not apply to a workload reads 0; one the workload's
// public surface cannot observe reads -1 (see README.md).
var perLayer = [][2]string{
	{"sim.host_share", "ratio"}, {"runtime.sched_share", "ratio"}, {"runtime.gc_share", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"core.launches", "count"}, {"core.completions", "count"}, {"core.sqes_read", "count"},
	{"core.cqes_written", "count"}, {"core.preemptions_per_launch", "ratio"},
	{"core.ctx_loads_per_launch", "ratio"}, {"core.ctx_saves_per_launch", "ratio"},
	{"core.quits_per_launch", "ratio"}, {"core.daemon_starts_per_launch", "ratio"},
	{"core.host_share", "ratio"}, {"core.cq_host_share", "ratio"},
	{"core.open_host_us", "us"}, {"core.close_host_us", "us"}, {"core.launch_host_us", "us"},
	{"core.pool_hit_ratio", "ratio"}, {"core.queue_virt_us_p50", "us"},
	{"core.preempted_virt_us_p50", "us"}, {"core.deliver_virt_us_p50", "us"},
	{"core.unattributed_virt_us_p50", "us"},
	{"prim.prims_executed", "count"}, {"prim.spin_aborts", "count"}, {"prim.spin_abort_ratio", "ratio"},
	{"prim.exec_virt_us_p50", "us"}, {"prim.host_share", "ratio"},
	{"mem.wire_bytes_local", "B"}, {"mem.wire_bytes_shm", "B"}, {"mem.wire_bytes_rdma", "B"},
	{"mem.host_share", "ratio"}, {"mem.alloc_bytes_per_wire_byte", "ratio"},
	{"fabric.shm.bytes", "B"}, {"fabric.shm.sat_ratio", "ratio"},
	{"fabric.sys.bytes", "B"}, {"fabric.sys.sat_ratio", "ratio"},
	{"fabric.nic.bytes", "B"}, {"fabric.nic.sat_ratio", "ratio"},
	{"fabric.leaf.bytes", "B"}, {"fabric.leaf.sat_ratio", "ratio"},
	{"fabric.spine.bytes", "B"}, {"fabric.spine.sat_ratio", "ratio"},
	{"fabric.flows", "count"}, {"fabric.rate_changes_per_flow", "ratio"}, {"fabric.host_share", "ratio"},
	{"cluster.wait_p50_ms", "ms"}, {"cluster.wait_p90_ms", "ms"}, {"cluster.exec_p90_ms", "ms"},
	{"cluster.admissions", "count"}, {"cluster.requeues", "count"}, {"cluster.rejections", "count"},
	{"cluster.pool_created", "count"}, {"cluster.pool_reused", "count"}, {"cluster.host_share", "ratio"},
	{"cluster.collapsed_traces", "count"}, {"cluster.sojourn_pooled_p90_ms", "ms"},
	{"cluster.sojourn_pooled_p99_ms", "ms"},
	{"ncclsim.dense_lat_p50_us", "us"}, {"ncclsim.dfccl_over_nccl_p50", "ratio"},
	{"ncclsim.replay_deadlocked", "bool"}, {"ncclsim.host_share", "ratio"},
	{"cudasim.host_share", "ratio"}, {"trace.host_share", "ratio"}, {"other.host_share", "ratio"},
	{"bench.self_share", "ratio"}, {"bench.profile_samples", "count"},
	{"trace.overhead_frac", "ratio"}, {"trace.virt_equal", "bool"},
}

var units = func() map[string]string {
	u := make(map[string]string)
	for _, m := range append(append([][2]string(nil), endToEnd...), perLayer...) {
		u[m[0]] = m[1]
	}
	return u
}()

var workloads = map[string]func(seed int64, seconds float64, traced bool) *report{
	"moe-step":        runMoE,
	"disorder-hybrid": runDisorder,
	"cluster-poisson": runClusterWorkload,
}

// allWorkloads is the order in which --workload all runs them, in one
// process.
var allWorkloads = []string{"moe-step", "disorder-hybrid", "cluster-poisson"}

func main() {
	workload := flag.String("workload", "", "moe-step, disorder-hybrid, cluster-poisson, or all")
	seed := flag.Int64("seed", 1, "seed of every input generator")
	seconds := flag.Float64("seconds", 10, "host seconds to keep measuring after the fixed work")
	traced := flag.Int("trace", 0, "1: per-layer metrics from a traced, profiled re-run")
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = allWorkloads
	}
	if _, ok := workloads[names[0]]; !ok || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or trace %d\n", *workload, *traced)
		os.Exit(2)
	}
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	machine()
	// With several workloads the result keys their metrics by workload,
	// and peak RSS is the process's maximum so far.
	total := newReport()
	for _, name := range names {
		r := finish(workloads[name](*seed, *seconds, *traced == 1), *traced == 1)
		if len(names) > 1 {
			fmt.Println("workload:", name)
		}
		printReport(r)
		total.correct = total.correct && r.correct
		total.attempted += r.attempted
		total.failed += r.failed
		for n, m := range r.metrics {
			if len(names) > 1 {
				n = name + "/" + n
			}
			total.metrics[n] = m
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{total.correct, total.attempted, total.failed, total.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// finish keeps exactly the metrics of the run's kind (end-to-end, or
// per-layer when traced); a metric the run could not produce fails it.
func finish(r *report, traced bool) *report {
	want := endToEnd
	if traced {
		want = perLayer
	} else {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			r.fail("getrusage: %v", err)
		}
		r.set("peak_rss_MB", float64(ru.Maxrss)*1024/1e6) // Maxrss is in KiB
	}
	got := r.metrics
	r.metrics = make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := got[m[0]]
		if !ok {
			r.fail("metric %s was not measured", m[0])
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.fail("metric %s is %v", m[0], v.Value)
			v.Value = 0
		}
		r.set(m[0], v.Value)
	}
	return r
}

// printReport prints one line per metric, fail_frac, and failed checks.
func printReport(r *report) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	fmt.Printf("%-34s %14.6g ratio\n", "fail_frac", ratio(float64(r.failed), float64(r.attempted)))
	for _, p := range r.problems {
		fmt.Println("FAILED CHECK:", p)
	}
}

// machine prints the record every output carries.
func machine() {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.Index(l, ":"); i >= 0 {
					model = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}
